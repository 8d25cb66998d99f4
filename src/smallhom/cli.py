"""Batch command line front end.

Subcommands:

* ``certify``  -- run one configuration and emit a certificate
* ``selftest`` -- run the full acceptance suite plus negative controls
* ``report``   -- re-render an existing certificate file

Certificates are deterministic structured text (stable key order, no
timestamps, configuration echoed), so re-running a configuration reproduces
the certificate byte for byte.  Exit codes: 0 all verdicts pass, 2 a
verdict or a certification check failed, 64 usage or configuration error,
65 budget exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass
from functools import cache

from . import __version__
from .linalg import FieldSpec
from .algebra import Budget, BudgetExceeded, CertificationError, qci_algebra
from .construction import BimoduleRun, ChainRun, SymbolicRun, UnsupportedRank
from .acceptance import control_sign_corruption, run_all

EXIT_OK = 0
EXIT_VERDICT = 2
EXIT_USAGE = 64
EXIT_BUDGET = 65

CONVENTIONS = {
    "basis_order": "lexicographic exponent vectors",
    "free_module_index": "slot-major: slot * dim + monomial index",
    "kronecker_index": "row-major (i, j) -> i * n_b + j",
    "suspension": "objects up by m, differentials scaled by (-1)^m",
    "chain_map_law": "components C_j -> D_{j+m} with (-1)^m f d = d f",
    "cone_blocks": "[-d_source, 0; -f, d_target], shifted source summand first",
    "koszul_rule": "d(x(x)y) = dx(x)y + (-1)^|x| x(x)dy, left-associated factors",
    "matrix_storage": "dense integer arrays, entries reduced to 0..p-1",
}

MODES = ("chain", "symbolic", "crosscheck")
VARIANTS = ("module", "bimodule")
CROSSCHECK_VERDICTS = (
    "theta_chain_maps",
    "cone_oracle_equivalence",
    "cone_terms_projective",
    "cone_length_formula",
)
# What a configuration file may hold; anything else is a usage error.
CONFIG_SECTIONS = ("run", "algebra", "budget")
CONFIG_KEYS = ("mode", "variant", "rank", "degree", "power", "char", "exponents", "commutators",
               "coproduct", "max_dim", "max_entries")


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str
    variant: str
    char: int
    exponents: tuple[int, ...]
    commutators: tuple[int, ...]
    coproduct: str | None
    rank: int
    degree: int
    power: int
    budget: Budget

    def validate(self) -> None:
        if self.mode not in MODES:
            raise UsageError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.variant not in VARIANTS:
            raise UsageError(f"variant must be one of {VARIANTS}")
        if self.variant == "bimodule" and self.mode != "chain":
            raise UsageError("the bimodule variant runs in chain mode only")
        if self.mode != "symbolic":
            if not self.exponents:
                raise UsageError("chain modes need an exponent list")
            if self.rank == 0:
                self.rank = len(self.exponents)
            elif self.rank != len(self.exponents):
                raise UsageError("the rank must equal the generator count of the algebra "
                                 "(its Krull-dimension proxy)")
        if self.power < 1:
            raise UsageError("power must be >= 1")
        # options a route does not read must not be echoed into its certificate
        if self.power != 1 and (self.mode == "symbolic" or self.variant == "bimodule"):
            raise UsageError("a power other than 1 needs the module variant in chain or crosscheck mode")
        if self.variant == "bimodule" and self.coproduct:
            raise UsageError("the bimodule variant takes no coproduct")
        if self.mode == "symbolic" and (self.exponents or self.coproduct):
            raise UsageError("symbolic mode takes no exponents or coproduct")
        if self.mode == "symbolic" and self.budget != Budget():
            raise UsageError("symbolic mode takes no budget other than the default")

    def echo(self) -> dict:
        return {
            "mode": self.mode,
            "variant": self.variant,
            "characteristic": self.char,
            "exponents": list(self.exponents),
            "commutators": list(self.commutators),
            "coproduct": self.coproduct or "none",
            "rank": self.rank,
            "degree": self.degree,
            "power": self.power,
            "budget_dim": self.budget.max_dim,
            "budget_entries": self.budget.max_entries,
        }


def _commutator_pairs(ngens: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(ngens) for j in range(i + 1, ngens)]


def _parse_commutators(text: str, ngens: int) -> tuple[int, ...]:
    """Integer values in lexicographic (i, j) pair order: one per pair, or a
    single value broadcast to every pair (none with fewer than two generators)."""
    pairs = _commutator_pairs(ngens)
    try:
        values = tuple(int(t) for t in text.split())
    except ValueError:
        raise UsageError(f"commutator values must be integers, got {text!r}") from None
    if len(values) == 1:
        return values * len(pairs)
    if len(values) == len(pairs):
        return values
    raise UsageError(f"need one commutator value or one per generator pair ({len(pairs)}), got {len(values)}")


def load_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    raw: dict[str, str] = {}
    if path:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise UsageError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in CONFIG_SECTIONS:
                raise UsageError(f"unknown config section [{section}] in {path}")
        for section in filter(parser.has_section, CONFIG_SECTIONS):
            for key, value in parser.items(section):
                if key not in CONFIG_KEYS:
                    raise UsageError(f"unknown config key {key!r} in section [{section}] of {path}")
                raw[key] = value

    def pick(flag, key, default=None):
        if flag is not None:
            return flag
        return raw.get(key, default)

    mode = pick(args.mode, "mode")
    if mode is None:
        raise UsageError("mode is required (flag --mode or config key mode)")
    char = int(pick(args.char, "char", 3))
    exponents = pick(args.exponents, "exponents", "")
    exps = tuple(int(t) for t in str(exponents).split()) if str(exponents).strip() else ()
    commutators = str(pick(args.commutators, "commutators", "1"))
    coproduct = pick(args.coproduct, "coproduct", "none")
    coproduct = None if coproduct in (None, "none", "") else coproduct
    cfg = RunConfig(
        mode=mode,
        variant=pick(args.variant, "variant", "module"),
        char=char,
        exponents=exps,
        commutators=_parse_commutators(commutators, len(exps)),
        coproduct=coproduct,
        rank=int(pick(args.rank, "rank", 0)),
        degree=int(pick(args.degree, "degree", 2)),
        power=int(pick(args.power, "power", 1)),
        budget=Budget(int(pick(args.budget_dim, "max_dim", Budget.max_dim)),
                      int(pick(args.budget_entries, "max_entries", Budget.max_entries))),
    )
    cfg.validate()
    return cfg


def build_algebra(cfg: RunConfig):
    field = FieldSpec(cfg.char)
    table = dict(zip(_commutator_pairs(len(cfg.exponents)), cfg.commutators))
    return qci_algebra(field, cfg.exponents, table, cfg.coproduct)


# ----------------------------------------------------------------------
# certificate rendering
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if value is None:
        return "none"
    return str(value)


def _treeify(value):
    if isinstance(value, dict):
        return {str(k): _treeify(v) for k, v in value.items()}
    return _fmt(value)


def render_tree(tree: dict) -> str:
    lines: list[str] = []

    def emit(node: dict, indent: int) -> None:
        pad = "  " * indent
        for k, v in node.items():
            if isinstance(v, dict):
                lines.append(f"{pad}{k}")
                emit(v, indent + 1)
            else:
                lines.append(f"{pad}{k} = {v}")

    emit(tree, 0)
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> dict:
    root: dict = {}
    stack: list[tuple[int, dict]] = [(-1, root)]
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        indent = (len(line) - len(line.lstrip(" "))) // 2
        body = line.strip()
        while stack and stack[-1][0] >= indent:
            stack.pop()
        if not stack:
            raise ValueError(f"bad indentation at line {lineno}")
        parent = stack[-1][1]
        if " = " in body:
            key, value = body.split(" = ", 1)
            parent[key] = value
        else:
            child: dict = {}
            parent[body] = child
            stack.append((indent, child))
    return root


def report_to_tree(cfg: RunConfig, report: dict, verdict_filter=None) -> tuple[dict, bool]:
    verdicts = report["verdicts"]
    if verdict_filter is not None:
        verdicts = [v for v in verdicts if v.name in verdict_filter]
    results = {k: _treeify(v) for k, v in report.items() if k != "verdicts"}
    vtree = {v.name: "pass" if v.passed else "fail" for v in verdicts}
    notes = {v.name: v.detail for v in verdicts if v.detail}
    ok = all(v.passed for v in verdicts)
    npass = sum(1 for v in verdicts if v.passed)
    tree = {
        "certificate": {
            "tool": f"smallhom {__version__}",
            "config": _treeify(cfg.echo()),
            "conventions": dict(CONVENTIONS),
            "results": results,
            "verdicts": vtree,
            "notes": notes,
            "summary": f"{'pass' if ok else 'fail'} {npass}/{len(verdicts)}",
        }
    }
    return tree, ok


def execute(cfg: RunConfig) -> tuple[dict, int]:
    verdict_filter = None
    if cfg.mode == "symbolic":
        report = SymbolicRun(FieldSpec(cfg.char), cfg.rank, cfg.degree).run()
    elif cfg.mode == "crosscheck" and cfg.rank < 2:
        raise UsageError("crosscheck needs rank >= 2 (the quadratic element)")
    elif cfg.variant == "bimodule":
        report = BimoduleRun(build_algebra(cfg), degree=cfg.degree, budget=cfg.budget).run()
    else:
        report = ChainRun(build_algebra(cfg), degree=cfg.degree, power=cfg.power, budget=cfg.budget).run()
        verdict_filter = CROSSCHECK_VERDICTS if cfg.mode == "crosscheck" else None
    tree, ok = report_to_tree(cfg, report, verdict_filter)
    return tree, EXIT_OK if ok else EXIT_VERDICT


def selftest_tree(seed: int) -> tuple[dict, int]:
    results = run_all(seed)
    controls = [control_sign_corruption()]

    def entries(rs) -> dict:
        return {r.key: {"status": "pass" if r.passed else "fail",
                        **{f"note_{k}": note for k, note in enumerate(r.details, 1)}} for r in rs}

    ok = all(r.passed for r in results + controls)
    npass = sum(1 for r in results + controls if r.passed)
    total = len(results) + len(controls)
    tree = {
        "certificate": {
            "tool": f"smallhom {__version__}",
            "config": {"mode": "selftest", "seed": seed},
            "conventions": dict(CONVENTIONS),
            "criteria": entries(results),
            "controls": entries(controls),
            "summary": f"{'pass' if ok else 'fail'} {npass}/{total}",
        }
    }
    timing = ", ".join(f"{r.key} {r.runtime:.2f}s" for r in results + controls)
    print(f"selftest timings: {timing}", file=sys.stderr)
    return tree, EXIT_OK if ok else EXIT_VERDICT


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="smallhom", description=__doc__, add_help=True,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", default=None, help="INI configuration file")
        p.add_argument("--mode", choices=MODES, default=None)
        p.add_argument("--variant", choices=VARIANTS, default=None)
        p.add_argument("--char", type=int, default=None)
        p.add_argument("--exponents", default=None, help="space-separated, e.g. '3 3'")
        p.add_argument("--commutators", default=None,
                       help="one value for all pairs or one per (i,j) pair")
        p.add_argument("--coproduct", choices=("primitive", "shifted", "none"), default=None)
        p.add_argument("--rank", type=int, default=None)
        p.add_argument("--degree", type=int, default=None)
        p.add_argument("--power", type=int, default=None)
        p.add_argument("--budget-dim", dest="budget_dim", type=int, default=None)
        p.add_argument("--budget-entries", dest="budget_entries", type=int, default=None)
        p.add_argument("--out", default=None, help="write the certificate to this path")

    cert = sub.add_parser("certify", help="run one configuration")
    add_run_flags(cert)

    self_p = sub.add_parser("selftest", help="run the acceptance suite")
    self_p.add_argument("--seed", type=int, default=0)
    self_p.add_argument("--out", default=None)

    rep = sub.add_parser("report", help="re-render a certificate file")
    rep.add_argument("path")
    rep.add_argument("--out", default=None)
    return parser


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# one parser per process, built by the first ``main`` call rather than at
# import; parsing leaves no state on it, so calls do not share flags
_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "certify":
            cfg = load_config(args.config, args)
            tree, code = execute(cfg)
            _write_out(render_tree(tree), args.out)
            return code
        if args.command == "selftest":
            tree, code = selftest_tree(args.seed)
            _write_out(render_tree(tree), args.out)
            return code
        if args.command == "report":
            with open(args.path) as fh:
                text = fh.read()
            tree = parse_tree(text)
            rendered = render_tree(tree)
            if rendered != text:
                print("warning: certificate was not in canonical form", file=sys.stderr)
            _write_out(rendered, args.out)
            return EXIT_OK
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, UnsupportedRank) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        print(f"budget error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AssertionError, CertificationError) as exc:
        # a check inside the certification failed: the claim is not certified
        print(f"certification error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
