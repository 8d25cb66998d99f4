"""Span recorder for the traced run, applied from outside the program.

``install`` wraps the public functions and methods listed in ``TARGETS``.
A module-level function is replaced in every ``smallhom`` module that binds
it, because ``from .chain import homology_space`` copies the binding into
``construction``; patching ``smallhom.chain`` alone would miss ``ChainRun``'s
calls.  Methods are replaced on their class.

Each call becomes a span ``[id, name, start, end, parent, op, self_s, outer,
info, error]``.  Spans stay in memory until ``write`` at the end of the run.
Self time is the span's duration minus the time its child spans cover;
``outer`` marks a span with no ancestor of the same name, so inclusive time
never counts a recursive call twice.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

FIELDS = ("id", "name", "start", "end", "parent", "op", "self_s", "outer", "info", "error")

# span name, defining module, attribute, workload whose traced run must reach it
TARGETS = (
    ("linalg.matmul", "smallhom.linalg", "FpMatrix.__matmul__", "certify-batch"),
    ("linalg.rref", "smallhom.linalg", "FpMatrix.rref", "certify-batch"),
    ("linalg.solve", "smallhom.linalg", "FpMatrix.solve", "certify-batch"),
    ("linalg.kernel_basis", "smallhom.linalg", "FpMatrix.kernel_basis", "certify-batch"),
    ("linalg.fpmatrix_init", "smallhom.linalg", "FpMatrix.__init__", "certify-batch"),
    ("linalg.quotient_by_subspace", "smallhom.linalg", "quotient_by_subspace", "certify-batch"),
    ("linalg.kron", "smallhom.linalg", "FpMatrix.kron", "certify-batch"),
    ("linalg.block", "smallhom.linalg", "block", "certify-batch"),
    ("algebra.verify_relations", "smallhom.algebra", "Module.verify_relations", "budget-exit"),
    ("algebra.tensor_diagonal", "smallhom.algebra", "tensor_diagonal", "certify-batch"),
    ("algebra.minimal_resolution", "smallhom.algebra", "minimal_resolution", "certify-batch"),
    ("algebra.is_projective", "smallhom.algebra", "is_projective", "certify-batch"),
    ("algebra.morphism_check", "smallhom.algebra", "ModuleMorphism.__init__", "certify-batch"),
    ("algebra.budget", "smallhom.algebra", "Budget.check", "budget-exit"),
    ("chain.homology_space", "smallhom.chain", "homology_space", "certify-batch"),
    ("chain.homology_rank_dims", "smallhom.chain", "homology_rank_dims", "certify-batch"),
    ("chain.complex_validate", "smallhom.chain", "ChainComplex.validate", "certify-batch"),
    ("chain.chainmap_validate", "smallhom.chain", "ChainMap.validate", "certify-batch"),
    ("chain.tensor_pair", "smallhom.chain", "tensor_pair", "certify-batch"),
    ("chain.lift_factor_map", "smallhom.chain", "TensorTower.lift_factor_map", "certify-batch"),
    ("chain.mapping_cone", "smallhom.chain", "mapping_cone", "certify-batch"),
    ("chain.induced_on_homology", "smallhom.chain", "induced_on_homology", "certify-batch"),
    ("chain.is_null_homotopic", "smallhom.chain", "is_null_homotopic", "certify-batch"),
    ("construction.ext_classes", "smallhom.construction", "ext_classes", "certify-batch"),
    ("construction.yoneda_power", "smallhom.construction", "yoneda_power", "certify-batch"),
    ("construction.build_class_complex", "smallhom.construction", "build_class_complex", "certify-batch"),
    ("construction.build_thetas", "smallhom.construction", "build_thetas", "certify-batch"),
    ("construction.find_parameter_system", "smallhom.construction", "find_parameter_system", "budget-exit"),
    ("construction.verify_parameter_system", "smallhom.construction", "verify_parameter_system", "budget-exit"),
    ("construction.pushout_module", "smallhom.construction", "pushout_module", "certify-batch"),
    ("construction.run", "smallhom.construction", "ChainRun.run", "certify-batch"),
    ("construction.run", "smallhom.construction", "BimoduleRun.run", "certify-batch"),
    ("construction.run", "smallhom.construction", "SymbolicRun.run", "certify-batch"),
    ("lefschetz.multiplication_matrix", "smallhom.lefschetz", "multiplication_matrix", "certify-batch"),
    ("lefschetz.cone_oracle", "smallhom.lefschetz", "cone_oracle", "certify-batch"),
    ("lefschetz.verify_lefschetz_profile", "smallhom.lefschetz", "verify_lefschetz_profile", "certify-batch"),
    ("acceptance.run_all", "smallhom.acceptance", "run_all", "certify-batch"),
    ("acceptance.property_suites", "smallhom.acceptance", "criterion_property_suites", "certify-batch"),
    ("acceptance.controls", "smallhom.acceptance", "control_sign_corruption", "certify-batch"),
    ("cli.main", "smallhom.cli", "main", "certify-batch"),
    ("cli.render_tree", "smallhom.cli", "render_tree", "certify-batch"),
    ("cli.report_to_tree", "smallhom.cli", "report_to_tree", "certify-batch"),
    ("cli.load_config", "smallhom.cli", "load_config", "certify-batch"),
)


def _matmul_info(args, kwargs):
    (m, k), n = args[0].a.shape, args[1].a.shape[1]
    return (m, k, n)


def _morphism_checked(args, kwargs):
    return args[4] if len(args) > 4 else kwargs.get("check", True)


def _product_dim(args, kwargs):
    return args[0].dim * args[1].dim


def _hcache_hit(args, kwargs):
    return args[1] in args[0]._hcache


# Facts read from a call's arguments before it runs.
PRE_INFO = {
    "linalg.matmul": _matmul_info,
    "linalg.rref": lambda args, kwargs: args[0]._rref is not None,
    "algebra.verify_relations": lambda args, kwargs: args[0].dim,
    "algebra.tensor_diagonal": _product_dim,
    "chain.homology_space": _hcache_hit,
    "cli.main": lambda args, kwargs: time.process_time(),
}
# Facts read from a call's result, given the info taken before it.
POST_INFO = {
    "linalg.solve": lambda info, result: result is None,
    "cli.main": lambda info, result: time.process_time() - info,
}
# A span is recorded only when this returns true.
RECORD_IF = {"algebra.morphism_check": _morphism_checked}


class MissingTargets(LookupError):
    """Wrapped functions the program no longer defines."""


class Recorder:
    """Spans of one run, in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.hits = [0] * len(TARGETS)
        self._stack: list[list] = []  # [span, time covered by children]
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs):
        info = PRE_INFO[name](args, kwargs) if name in PRE_INFO else None
        parent = self._stack[-1][0][0] if self._stack else -1
        span = [len(self.spans), name, 0.0, 0.0, parent, self.op, 0.0, self._depth[name] == 0, info, None]
        self.spans.append(span)
        frame = [span, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[9] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._depth[name] -= 1
            self._stack.pop()
            span[2], span[3], span[6] = start, end, (end - start) - frame[1]
            if self._stack:
                self._stack[-1][1] += end - start
        if name in POST_INFO:
            span[8] = POST_INFO[name](info, result)
        return result

    def _wrap(self, index: int, name: str, fn):
        record_if = RECORD_IF.get(name)
        hits = self.hits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record_if is not None and not record_if(args, kwargs):
                return fn(*args, **kwargs)
            hits[index] += 1
            return self.call(name, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target; raise ``MissingTargets`` naming any not found."""
        missing = []
        resolved = []
        for index, (name, module_name, attr, _) in enumerate(TARGETS):
            module = sys.modules.get(module_name)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            fn = vars(holder).get(leaf) if holder is not None else None
            if not callable(fn):
                missing.append(f"{name} ({module_name}.{attr})")
            else:
                resolved.append((index, name, holder, leaf, fn))
        if missing:
            raise MissingTargets("wrapped functions not found: " + ", ".join(missing))
        for index, name, holder, leaf, fn in resolved:
            wrapper = self._wrap(index, name, fn)
            if isinstance(holder, type):
                self._bind(holder, leaf, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if (mod_name == "smallhom" or mod_name.startswith("smallhom.")) and vars(module).get(leaf) is fn:
                    self._bind(module, leaf, wrapper)

    def _bind(self, holder, attr, wrapper) -> None:
        self._restore.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def unreached(self, workload: str) -> list[str]:
        """Targets whose home is ``workload`` that no call reached."""
        return [f"{name} ({module_name}.{attr})"
                for (name, module_name, attr, home), hits in zip(TARGETS, self.hits)
                if home == workload and hits == 0]

    def write(self, path: str, header: dict) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "fields": FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _calls(name):
    return (f"{name}.calls", "count", "lower")


def _self(name):
    return (f"{name}.self_s", "s", "lower")


def _incl(name):
    return (f"{name}.incl_s", "s", "lower")


# (metric name, unit, better): the per_layer list of BENCHMARK.json.
METRICS = (
    _calls("linalg.matmul"), _self("linalg.matmul"),
    ("linalg.matmul.flops_computed", "flop", "lower"),
    ("linalg.matmul.bytes_computed", "B", "lower"),
    ("linalg.matmul.calls_n_le_64", "count", "lower"),
    ("linalg.matmul.calls_n_le_256", "count", "lower"),
    ("linalg.matmul.calls_n_gt_256", "count", "lower"),
    _calls("linalg.rref"), _self("linalg.rref"),
    ("linalg.rref.cache_hit_ratio", "ratio", "higher"),
    _calls("linalg.solve"), _self("linalg.solve"),
    ("linalg.solve.inconsistent_ratio", "ratio", "lower"),
    _calls("linalg.kernel_basis"), _self("linalg.kernel_basis"),
    _calls("linalg.fpmatrix_init"), _self("linalg.fpmatrix_init"),
    _self("linalg.quotient_by_subspace"), _self("linalg.kron"), _self("linalg.block"),
    _calls("algebra.verify_relations"), _incl("algebra.verify_relations"),
    ("algebra.verify_relations.max_dim", "count", "lower"),
    _calls("algebra.tensor_diagonal"), _incl("algebra.tensor_diagonal"),
    ("algebra.tensor_diagonal.max_dim", "count", "lower"),
    _incl("algebra.minimal_resolution"),
    _calls("algebra.is_projective"), _incl("algebra.is_projective"),
    _calls("algebra.morphism_check"), _incl("algebra.morphism_check"),
    ("algebra.budget.checks", "count", "lower"),
    ("algebra.budget.exceeded", "count", "lower"),
    _calls("chain.homology_space"), _incl("chain.homology_space"),
    ("chain.homology_space.cache_hit_ratio", "ratio", "higher"),
    _calls("chain.homology_rank_dims"), _incl("chain.homology_rank_dims"),
    _incl("chain.complex_validate"), _incl("chain.chainmap_validate"),
    _incl("chain.tensor_pair"), _incl("chain.lift_factor_map"), _incl("chain.mapping_cone"),
    _incl("chain.induced_on_homology"),
    _calls("chain.is_null_homotopic"), _incl("chain.is_null_homotopic"),
    _incl("construction.ext_classes"), _incl("construction.yoneda_power"),
    _incl("construction.build_class_complex"), _incl("construction.build_thetas"),
    _incl("construction.find_parameter_system"),
    ("construction.parameter_tuples_tried", "count", "lower"),
    _calls("construction.pushout_module"), _incl("construction.pushout_module"),
    _self("construction.run"),
    _calls("lefschetz.multiplication_matrix"), _self("lefschetz.multiplication_matrix"),
    _incl("lefschetz.cone_oracle"), _incl("lefschetz.verify_lefschetz_profile"),
    _incl("acceptance.run_all"), _incl("acceptance.property_suites"), _incl("acceptance.controls"),
    _calls("cli.main"), _incl("cli.main"),
    ("cli.main.cpu_s", "s", "lower"),
    _self("cli.render_tree"), _self("cli.report_to_tree"), _self("cli.load_config"),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_values(spans: list[list]) -> dict[str, float]:
    """Every span-derived metric of ``METRICS``, keyed by name."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    flagged: dict[str, int] = defaultdict(int)  # calls whose boolean info is true
    max_info: dict[str, int] = defaultdict(int)
    cpu_s = flops = nbytes = 0.0
    sizes = [0, 0, 0]
    tuples_tried = exceeded = 0
    for _, name, start, end, parent, _, own, outer, info, error in spans:
        calls[name] += 1
        self_s[name] += own
        if outer:
            incl_s[name] += end - start
        if info is True:
            flagged[name] += 1
        if name == "linalg.matmul":
            m, k, n = info
            flops += 2 * m * k * n
            nbytes += 8 * (m * k + k * n + m * n)
            big = max(m, k, n)
            sizes[0 if big <= 64 else 1 if big <= 256 else 2] += 1
        elif name in ("algebra.verify_relations", "algebra.tensor_diagonal"):
            max_info[name] = max(max_info[name], info)
        elif name == "algebra.budget":
            exceeded += error is not None
        elif name == "construction.verify_parameter_system":
            tuples_tried += parent >= 0 and spans[parent][1] == "construction.find_parameter_system"
        elif name == "cli.main":
            cpu_s += info or 0.0
    out: dict[str, float] = {}
    for metric, _, _ in METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[layer]
        elif stat == "self_s":
            out[metric] = self_s[layer]
        elif stat == "incl_s":
            out[metric] = incl_s[layer]
        elif stat in ("cache_hit_ratio", "inconsistent_ratio"):
            out[metric] = _ratio(flagged[layer], calls[layer])
        elif stat == "max_dim":
            out[metric] = max_info[layer]
    out.update({
        "linalg.matmul.flops_computed": flops,
        "linalg.matmul.bytes_computed": nbytes,
        "linalg.matmul.calls_n_le_64": sizes[0],
        "linalg.matmul.calls_n_le_256": sizes[1],
        "linalg.matmul.calls_n_gt_256": sizes[2],
        "algebra.budget.checks": calls["algebra.budget"],
        "algebra.budget.exceeded": exceeded,
        "construction.parameter_tuples_tried": tuples_tried,
        "cli.main.cpu_s": cpu_s,
        "trace.spans": len(spans),
    })
    return out
