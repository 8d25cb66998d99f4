"""Command line interface: exit codes, determinism, certificates."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from smallhom import algebra, chain, cli, construction, lefschetz
from smallhom.algebra import CertificationError
from smallhom.construction import ChainRun, Verdict
from smallhom.linalg import FieldSpec, FpMatrix


def run_cli(args):
    return cli.main(args)


def test_symbolic_certify_passes(capsys):
    code = run_cli(["certify", "--mode", "symbolic", "--rank", "8", "--char", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "total = 252" in out
    assert "closed_form = 252" in out
    assert "summary = pass 4/4" in out
    assert "family_lengths = [12, 32, 52, 72, 92]" in out


def test_symbolic_rank7_is_usage_error(capsys):
    code = run_cli(["certify", "--mode", "symbolic", "--rank", "7", "--char", "3"])
    assert code == 64
    assert "usage error" in capsys.readouterr().err


def test_chain_rank4_is_usage_error(capsys):
    code = run_cli(["certify", "--mode", "chain", "--char", "3",
                    "--exponents", "3 3 3 3", "--coproduct", "primitive"])
    assert code == 64


RANK_MISMATCH = "usage error: the rank must equal the generator count of the algebra (its Krull-dimension proxy)\n"

RANK_MISMATCH_RUN = """
import sys
from smallhom import cli
assert False, "reached only without -O"
args = ["certify", "--mode", "chain", "--char", "3", "--exponents", "3 3", "--coproduct", "primitive"]
codes = [cli.main(args + ["--rank", "1"]), cli.main(args + ["--config", CONFIG])]
print(f"optimize={sys.flags.optimize} exits={codes}")
"""


def test_chain_rank_other_than_the_generator_count_is_usage_error(tmp_path, capsys, run_optimized):
    config = tmp_path / "rank.ini"
    config.write_text("[run]\nrank = 3\n")
    args = ["certify", "--mode", "chain", "--char", "3", "--exponents", "3 3", "--coproduct", "primitive"]
    for extra in (["--rank", "1"], ["--config", str(config)]):
        assert run_cli(args + extra) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == RANK_MISMATCH
    run = run_optimized(RANK_MISMATCH_RUN.replace("CONFIG", repr(str(config))))
    assert run.stdout == "optimize=1 exits=[64, 64]\n"
    assert run.stderr == RANK_MISMATCH * 2


def test_five_generators_are_outside_the_chain_window(capsys):
    args = ["certify", "--mode", "chain", "--char", "2", "--exponents", "2 2 2 2 2"]
    for extra in ([], ["--rank", "5"]):
        assert run_cli(args + extra) == 64
        assert capsys.readouterr().err == ("usage error: ranks 4..7 are not supported: the quadratic "
                                           "element needs 8 generators and chain level stops at 3\n")


SYMBOLIC_CAP_RUN = """
import os
import sys
from smallhom import cli, construction
assert False, "reached only without -O"
top = construction.max_printable_rank()
calls, real = [], construction.cone_dimensions
construction.cone_dimensions = lambda model: calls.append(model.d) or real(model)
codes = [cli.main(["certify", "--mode", "symbolic", "--rank", str(d), "--char", "3", "--out", os.devnull])
         for d in (top, top + 1)]
print(f"optimize={sys.flags.optimize} top={top} exits={codes} tables={calls}")
"""


def test_symbolic_rank_stops_where_the_bound_stops_printing(monkeypatch, capsys, run_optimized):
    limit = sys.get_int_max_str_digits()
    top = construction.max_printable_rank()
    assert limit and top == (10 ** limit).bit_length() - 1  # 14284 at the default limit of 4300
    assert len(str(2 ** top)) == limit
    with pytest.raises(ValueError, match="integer string conversion"):
        str(2 ** (top + 1))
    calls, real = [], construction.cone_dimensions
    monkeypatch.setattr(construction, "cone_dimensions", lambda model: calls.append(model.d) or real(model))
    assert run_cli(["certify", "--mode", "symbolic", "--rank", str(top), "--char", "3"]) == 0
    assert f"bound = {2 ** top}\n" in capsys.readouterr().out and calls == [8]
    refused = (f"usage error: symbolic mode supports rank <= {top}: the bound 2^rank must print "
               "within the interpreter's integer string limit\n")
    assert run_cli(["certify", "--mode", "symbolic", "--rank", str(top + 1), "--char", "3"]) == 64
    assert capsys.readouterr() == ("", refused) and calls == [8]
    run = run_optimized(SYMBOLIC_CAP_RUN)
    assert run.stdout == f"optimize=1 top={top} exits=[0, 64] tables=[8]\n"
    assert run.stderr == refused


def test_characteristic_above_2_pow_20_is_usage_error(capsys):
    code = run_cli(["certify", "--mode", "chain", "--char", "2147483647", "--exponents", "2"])
    assert code == 64
    assert "2**20" in capsys.readouterr().err


def test_missing_mode_is_usage_error(capsys):
    code = run_cli(["certify"])
    assert code == 64


def test_chain_certify_deterministic(tmp_path):
    args = ["certify", "--mode", "chain", "--char", "3", "--exponents", "3 3",
            "--coproduct", "primitive"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "hypercube_homology" in text
    assert "lemma_projective = pass" in text
    assert "k_tensor_dim = 81" in text


def test_chain_certify_from_config(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(
        "[run]\nmode = chain\nrank = 1\npower = 2\n"
        "[algebra]\nchar = 3\nexponents = 3\ncoproduct = primitive\n"
        "[budget]\nmax_dim = 2048\n"
    )
    code = run_cli(["certify", "--config", str(cfgfile)])
    out = capsys.readouterr().out
    assert code == 0
    assert "power = 2" in out
    assert "effective_degree = 4" in out


@pytest.mark.parametrize("text, named", [
    ("[run]\nmode = symbolic\nrank = 8\n[budget]\nmax_dimm = 100\n", "'max_dimm' in section [budget]"),
    ("[run]\nmode = symbolic\nrank = 8\nfunction = length\n", "'function' in section [run]"),
    ("[run]\nmode = symbolic\nrank = 8\n[algebr]\nchar = 3\n", "section [algebr]"),
])
def test_unknown_config_key_or_section_is_usage_error(tmp_path, capsys, text, named):
    # a typo must not run on defaults and exit 0
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text)
    assert run_cli(["certify", "--config", str(cfgfile)]) == 64
    assert named in capsys.readouterr().err


def test_flag_overrides_config(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\nmode = symbolic\nrank = 8\n[algebra]\nchar = 3\n")
    code = run_cli(["certify", "--config", str(cfgfile), "--rank", "10"])
    out = capsys.readouterr().out
    assert code == 0 and "rank = 10" in out and "total = 1008" in out


def test_budget_exit_code(capsys, monkeypatch, tensor_diagonal_calls, matmul_calls):
    syzygies = []
    real_submodule = algebra.submodule
    monkeypatch.setattr(algebra, "submodule", lambda M, cols: syzygies.append(M.dim) or real_submodule(M, cols))
    code = run_cli(["certify", "--mode", "chain", "--char", "3",
                    "--exponents", "3 3 3", "--coproduct", "primitive"])
    assert code == 65
    err = capsys.readouterr().err
    # sizes are checked before the parameter search builds its first tensor
    assert err == "budget error: parameter search: tensor 729 x 27 = 19683 exceeds budget 4096\n"
    assert tensor_diagonal_calls == []
    # the resolution of length 3 builds omega(1) .. omega(3), in P_0 .. P_2;
    # omega(4), the kernel of the last cover, is never read
    assert syzygies == [27, 81, 162]
    # P_3 (rank 10, dim 270) acts through its regular module: no dense action
    assert not [c for c in matmul_calls if c[:2] == (270, 270) or c[1:] == (270, 270)]
    # free-module maps take one product per monomial, not one per matvec
    # (5760 products when each slot and monomial was its own matvec)
    assert len(matmul_calls) < 1000


@pytest.mark.parametrize("args", [
    ["--mode", "symbolic", "--rank", "8", "--char", "3", "--budget-dim", "-7"],
    ["--mode", "chain", "--char", "3", "--exponents", "3 3", "--coproduct", "primitive", "--budget-dim", "0"],
    ["--mode", "symbolic", "--rank", "8", "--char", "3", "--budget-entries", "0"],
], ids=["dim-negative", "dim-zero", "entries-zero"])
def test_nonpositive_budget_is_usage_error(args, capsys):
    # a cap below 1 admits nothing; it must not pass into a certificate
    assert run_cli(["certify", *args]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"usage error: budget max_(dim|entries) must be at least 1, got -?\d+\n", captured.err)


def test_crosscheck_mode(capsys):
    code = run_cli(["certify", "--mode", "crosscheck", "--char", "3",
                    "--exponents", "3 3", "--coproduct", "primitive"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cone_oracle_equivalence = pass" in out
    assert "lemma_projective" not in out  # filtered down to the cone section


def test_crosscheck_needs_rank_two(capsys):
    code = run_cli(["certify", "--mode", "crosscheck", "--char", "3",
                    "--exponents", "3", "--coproduct", "primitive"])
    assert code == 64


def test_bimodule_certify(capsys):
    code = run_cli(["certify", "--mode", "chain", "--variant", "bimodule",
                    "--char", "3", "--exponents", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "two_sided_homology = pass" in out
    assert "reduced_pushout_projective = pass" in out


@pytest.mark.parametrize("mode", ["symbolic", "crosscheck"])
def test_bimodule_variant_outside_chain_mode_is_a_usage_error(mode, capsys):
    code = run_cli(["certify", "--mode", mode, "--variant", "bimodule", "--rank", "8" if mode == "symbolic" else "2",
                    "--char", "3", "--exponents", "3 3"])
    assert code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the bimodule variant runs in chain mode only" in captured.err


BIMODULE_F3 = ["--mode", "chain", "--variant", "bimodule", "--char", "3", "--exponents", "3"]
SYMBOLIC_R8 = ["--mode", "symbolic", "--rank", "8", "--char", "3"]
IGNORED_POWER = "usage error: a power other than 1 needs the module variant in chain or crosscheck mode\n"
IGNORED_ALGEBRA = "usage error: symbolic mode takes no exponents or coproduct\n"
IGNORED_BUDGET = "usage error: symbolic mode takes no budget other than the default\n"


@pytest.mark.parametrize("flags, config, err", [
    (BIMODULE_F3 + ["--power", "2"],
     "[run]\nmode = chain\nvariant = bimodule\npower = 2\n[algebra]\nchar = 3\nexponents = 3\n", IGNORED_POWER),
    (SYMBOLIC_R8 + ["--power", "3"], "[run]\nmode = symbolic\nrank = 8\npower = 3\n", IGNORED_POWER),
    (SYMBOLIC_R8 + ["--exponents", "5 5"], "[run]\nmode = symbolic\nrank = 8\n[algebra]\nexponents = 5 5\n",
     IGNORED_ALGEBRA),
    (SYMBOLIC_R8 + ["--coproduct", "shifted"], "[run]\nmode = symbolic\nrank = 8\n[algebra]\ncoproduct = shifted\n",
     IGNORED_ALGEBRA),
    (SYMBOLIC_R8 + ["--budget-dim", "100"], "[run]\nmode = symbolic\nrank = 8\n[budget]\nmax_dim = 100\n",
     IGNORED_BUDGET),
    (SYMBOLIC_R8 + ["--budget-entries", "100000000000"],
     "[run]\nmode = symbolic\nrank = 8\n[budget]\nmax_entries = 100000000000\n", IGNORED_BUDGET),
], ids=["bimodule-power", "symbolic-power", "symbolic-exponents", "symbolic-coproduct", "symbolic-budget-dim",
        "symbolic-budget-entries"])
def test_options_the_route_ignores_are_usage_errors(flags, config, err, tmp_path, capsys):
    # a certificate must not echo an option its route never reads
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(config)
    for args in (flags, ["--config", str(cfgfile)]):
        assert run_cli(["certify", *args]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err


@pytest.mark.parametrize("flags, defaults", [
    (BIMODULE_F3, ["--power", "1", "--coproduct", "none"]),
    (SYMBOLIC_R8, ["--power", "1", "--coproduct", "none", "--exponents", "", "--budget-dim", "4096",
                   "--budget-entries", "20000000"]),
], ids=["bimodule", "symbolic"])
def test_the_default_options_still_certify_unchanged(flags, defaults, capsys):
    assert run_cli(["certify", *flags]) == 0
    plain = capsys.readouterr().out
    assert run_cli(["certify", *flags, *defaults]) == 0
    assert capsys.readouterr().out == plain


def test_two_sided_rank2_is_rejected_up_front(capsys):
    code = run_cli(["certify", "--mode", "chain", "--variant", "bimodule", "--char", "3", "--exponents", "3 3"])
    assert code == 64
    assert "the two-sided route supports rank 1 only" in capsys.readouterr().err


def test_the_two_sided_route_builds_classes_until_one_fits(monkeypatch, capsys):
    # F_5 [5] has five degree-2 classes and class 0 gives a projective reduced
    # pushout, so one class is built; the other four are only counted
    built = []
    real = construction.class_from_images
    monkeypatch.setattr(construction, "class_from_images",
                        lambda res, n, images: built.append(n) or real(res, n, images))
    assert run_cli(["certify", "--mode", "chain", "--variant", "bimodule", "--char", "5", "--exponents", "5"]) == 0
    assert built == [2]
    results = cli.parse_tree(capsys.readouterr().out)["certificate"]["results"]
    assert (results["class_index"], results["class_count"], results["reduced_pushout_dim"]) == ("0", "5", "5")


def test_budget_error_names_the_two_sided_stage(capsys):
    code = run_cli(["certify", "--mode", "chain", "--variant", "bimodule", "--char", "5",
                    "--exponents", "5", "--budget-dim", "10"])
    assert code == 65
    assert capsys.readouterr().err == "budget error: reduced pushout: tensor 25 x 1 = 25 exceeds budget 10\n"


def test_main_calls_do_not_share_flags(capsys):
    # the parser is built once per process; parsed flags must not carry over
    args = ["certify", "--mode", "chain", "--char", "3", "--exponents", "3", "--coproduct", "primitive"]
    assert run_cli(args + ["--power", "2"]) == 0
    assert "\n    power = 2\n" in capsys.readouterr().out
    assert run_cli(args) == 0
    assert "\n    power = 1\n" in capsys.readouterr().out
    assert cli._parser() is cli._parser()


def test_importing_the_cli_builds_no_parser():
    run = subprocess.run([sys.executable, "-c", "import smallhom.cli as c; print(c._parser.cache_info().currsize)"],
                         env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stdout == "0\n", run.stderr


def test_verdict_failure_exits_2(monkeypatch, capsys):
    class StubRun:
        def __init__(self, *a, **k):
            pass

        def run(self):
            return {"mode": "symbolic", "verdicts": [Verdict("stub", False, "broken")]}

    monkeypatch.setattr(cli, "SymbolicRun", StubRun)
    code = run_cli(["certify", "--mode", "symbolic", "--rank", "8", "--char", "3"])
    out = capsys.readouterr().out
    assert code == 2
    assert "stub = fail" in out and "summary = fail 0/1" in out


WRONG_SIZE_PUSHOUT = """
import sys
import smallhom.construction as construction
from smallhom import cli
assert False, "reached only without -O"
real = construction.quotient_module
# quotient by nothing: the ambient module, larger than the pushout
construction.quotient_module = lambda M, cols: real(M, cols.take_columns([]))
code = cli.main(["certify", "--mode", "chain", "--char", "3", "--exponents", "3",
                 "--coproduct", "primitive"])
print(f"optimize={sys.flags.optimize} exit={code}")
"""


def test_failed_certification_check_exits_2(monkeypatch, capsys, run_optimized):
    # a check that raises inside a run is a failed verdict, not a crash
    real = construction.quotient_module
    monkeypatch.setattr(construction, "quotient_module", lambda M, cols: real(M, cols.take_columns([])))
    code = run_cli(["certify", "--mode", "chain", "--char", "3", "--exponents", "3",
                    "--coproduct", "primitive"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "certification error: pushout dimension count\n"
    # the same under python -O, which strips asserts but not these checks
    run = run_optimized(WRONG_SIZE_PUSHOUT)
    assert run.stdout == "optimize=1 exit=2\n"
    assert run.stderr == "certification error: pushout dimension count\n"


CORRUPT_FREE_MODULE = """
import sys
import smallhom.algebra as algebra
from smallhom import cli
from smallhom.linalg import FpMatrix
assert False, "reached only without -O"
real = algebra.free_module
# x + 1 is not nilpotent: the relation check of the corrupted module fails
algebra.free_module = lambda A, rank: algebra.Module(
    A, [x + FpMatrix.identity(A.p, x.rows) for x in real(A, rank).action], check=True)
code = cli.main(["certify", "--mode", "chain", "--char", "3", "--exponents", "3",
                 "--coproduct", "primitive"])
print(f"optimize={sys.flags.optimize} exit={code}")
"""


def test_failed_relation_check_is_a_certification_error(monkeypatch, capsys, run_optimized):
    # a module relation that fails inside a run is a failed check, not a usage error
    real = algebra.free_module
    monkeypatch.setattr(algebra, "free_module", lambda A, rank: algebra.Module(
        A, [x + FpMatrix.identity(A.p, x.rows) for x in real(A, rank).action], check=True))
    code = run_cli(["certify", "--mode", "chain", "--char", "3", "--exponents", "3",
                    "--coproduct", "primitive"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "certification error: generator 0 violates x^3 = 0\n"
    run = run_optimized(CORRUPT_FREE_MODULE)
    assert run.stdout == "optimize=1 exit=2\n"
    assert run.stderr == "certification error: generator 0 violates x^3 = 0\n"


# Each factor complex's homology record with one defect, at its top degree
# or at degree 0; the tower's classes inherit it by Kunneth.
CORRUPT_CLASSES = """
import dataclasses

import numpy as np
from smallhom import chain
from smallhom.linalg import FpMatrix, hstack

real_homology_space = chain.homology_space


def corrupted(kind):
    def homology_space(C, n):
        h, p = real_homology_space(C, n), C.algebra.p
        if kind == "not-a-cycle" and n == C.hi:
            # add to a representative a vector that d_top does not kill
            k = int(np.flatnonzero(C.diffs[n].matrix.a.any(axis=0))[0])
            z = h.reps.a.copy()
            z[k, 0] += 1
            return dataclasses.replace(h, reps=FpMatrix(p, z))
        if kind == "boundary-pairing" and n == 0:
            # add to a cocycle a functional that does not vanish on im d_1
            r = int(np.flatnonzero(C.diffs[1].matrix.a.any(axis=1))[0])
            w = h.duals.a.copy()
            w[0, r] += 1
            return dataclasses.replace(h, duals=FpMatrix(p, w))
        if kind == "singular-pairing" and n == C.hi:
            return dataclasses.replace(h, duals=h.duals.scale(0))
        if kind == "wrong-size-pairing" and n == C.hi:  # a 1 x 2 pairing
            return dataclasses.replace(h, reps=hstack([h.reps, h.reps]))
        if kind == "corrupt-homotopy" and n == 0:
            # one entry of h_0 moved in a row where d_1 is nonzero
            def contract(record, real=h.contract):
                P, h0 = real(record)
                k = int(np.flatnonzero(C.diffs[1].matrix.a.any(axis=0))[0])
                bad = h0.a.copy()
                bad[k, 0] += 1
                return P, FpMatrix(p, bad)
            return dataclasses.replace(h, contract=contract)
        if kind == "dropped-class" and n == 0:
            # W Z = I, d Z = 0 and W d = 0 still hold; only the homotopy identity fails
            return dataclasses.replace(h, reps=h.reps.take_columns(range(1, h.dim)), duals=FpMatrix(p, h.duals.a[1:]))
        return h
    return homology_space
"""
CLASS_DEFECTS = {
    "not-a-cycle": "a degree-1 representative is not a cycle",
    "boundary-pairing": "a degree-0 cocycle does not vanish on boundaries",
    "singular-pairing": "the degree-1 classes do not pair to the identity",
    "wrong-size-pairing": "the degree-1 classes do not pair to the identity",
    "corrupt-homotopy": "the degree-0 homotopy identity fails",
    "dropped-class": "the degree-0 homotopy identity fails",
}
F2_RANK2 = ["certify", "--mode", "chain", "--char", "2", "--exponents", "2 2", "--coproduct", "primitive"]
CORRUPT_CLASSES_RUN = f"""
import sys
from smallhom import cli
assert False, "reached only without -O"
for kind in {list(CLASS_DEFECTS)!r}:
    chain.homology_space = corrupted(kind)
    code = cli.main({F2_RANK2!r})
    print(f"optimize={{sys.flags.optimize}} {{kind}} exit={{code}}")
"""


@pytest.mark.parametrize("kind", sorted(CLASS_DEFECTS))
def test_corrupt_factor_classes_fail_certification(kind, monkeypatch, capsys):
    scope: dict = {}
    exec(CORRUPT_CLASSES, scope)
    monkeypatch.setattr(chain, "homology_space", scope["corrupted"](kind))
    message = CLASS_DEFECTS[kind]
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        ChainRun(algebra.qci_algebra(FieldSpec(2), [2, 2], coproduct="primitive")).run()
    assert run_cli(F2_RANK2) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"certification error: {message}\n"


def test_corrupt_factor_classes_fail_under_optimize(run_optimized):
    run = run_optimized(CORRUPT_CLASSES + CORRUPT_CLASSES_RUN)
    assert run.stdout == "".join(f"optimize=1 {kind} exit=2\n" for kind in CLASS_DEFECTS)
    assert run.stderr == "".join(f"certification error: {m}\n" for m in CLASS_DEFECTS.values())


RANK2_CONFIG = ["certify", "--config", str(Path(__file__).resolve().parent.parent / "configs" / "chain-rank2.ini")]
CORRUPT_CONE = """
import sys

import numpy as np
from smallhom import cli, construction
from smallhom.chain import BlockMorphism, ChainMap
from smallhom.linalg import FpMatrix, KronBlocks

real_mapping_cone = construction.mapping_cone


def corrupted_cone(u):
    # the first entry of the left factor of u's first Kronecker term whose
    # change breaks the chain-map law of u: one block of the cone is wrong
    j, f = next(iter(u.comps.items()))
    kb = f.blocks
    key = next(iter(kb.terms))
    (c, L, R), *rest = kb.terms[key]
    for r, col in np.ndindex(*L.shape):
        a = L.a.copy()
        a[r, col] += 1
        terms = {**kb.terms, key: [(c, FpMatrix(kb.p, a), R), *rest]}
        bad = BlockMorphism(f.source, f.target, KronBlocks(kb.p, kb.row_slots, kb.col_slots, terms))
        v = ChainMap(u.source, u.target, u.shift, {**u.comps, j: bad}, check=False)
        if v.law_defects():
            return real_mapping_cone(v)
    raise RuntimeError("no entry breaks the law")
"""
CORRUPT_CONE_RUN = f"""
assert False, "reached only without -O"
construction.mapping_cone = corrupted_cone
print(f"optimize={{sys.flags.optimize}} exit={{cli.main({RANK2_CONFIG!r})}}")
"""
CORRUPT_CONE_MESSAGE = "certification error: chain-map law fails at degree 0\n"


def test_corrupt_cone_block_exits_2(monkeypatch, capsys, run_optimized):
    scope: dict = {}
    exec(CORRUPT_CONE, scope)
    monkeypatch.setattr(construction, "mapping_cone", scope["corrupted_cone"])
    assert run_cli(RANK2_CONFIG) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == CORRUPT_CONE_MESSAGE
    run = run_optimized(CORRUPT_CONE + CORRUPT_CONE_RUN)
    assert run.stdout == "optimize=1 exit=2\n"
    assert run.stderr == CORRUPT_CONE_MESSAGE


# Three corruptions that the Kronecker-block law checks must catch
BLOCK_LAW_CONTROLS = """
import dataclasses
import functools

import numpy as np
from smallhom import chain, construction
from smallhom.algebra import DiagonalTensor, ModuleMorphism, qci_algebra, regular_module
from smallhom.chain import ChainComplex, ChainMap, tensor_pair
from smallhom.linalg import FieldSpec, FpMatrix

F3 = FieldSpec(3)
real_slot_blocks = chain._slot_blocks
real_build_thetas = construction.build_thetas


def flipped_slot_blocks(left, right, layout, m, left_comps, right_comps, drop_koszul_sign=False):
    # the first 1 (x) d block of a differential whose Koszul sign is -1 loses it
    out = real_slot_blocks(left, right, layout, m, left_comps, right_comps, drop_koszul_sign)
    if m != -1:
        return out
    for kb in out.values():
        for key, terms in kb.terms.items():
            (c, L, R), = terms
            if L is None and c == left.algebra.p - 1:
                kb.terms[key] = [(1, L, R)]
                return out
    return out


def two_term_pair():
    # (A --x--> A) tensored with itself over F_3[x]/(x^3)
    A = qci_algebra(F3, [3], coproduct="primitive")
    reg = regular_module(A)
    C = ChainComplex(A, {0: reg, 1: reg}, {1: ModuleMorphism(reg, reg, A.left_actions[0])})
    return tensor_pair(C, C, DiagonalTensor(A))


def perturbed_self_map(nu):
    # the first entry of the self map whose change breaks its chain-map law
    (j, f), = nu.comps.items()
    for r, c in np.ndindex(*f.matrix.shape):
        a = f.matrix.a.copy()
        a[r, c] += 1
        moved = ModuleMorphism(f.source, f.target, FpMatrix(f.matrix.p, a), check=False)
        g = ChainMap(nu.source, nu.target, nu.shift, {j: moved}, check=False)
        if g.law_defects():
            return g
    raise ValueError("no single entry breaks the law")


def perturbed_build_thetas(tower, class_complexes, drop_koszul_sign=False):
    first = dataclasses.replace(class_complexes[0], self_map=perturbed_self_map(class_complexes[0].self_map))
    return real_build_thetas(tower, [first, *class_complexes[1:]], drop_koszul_sign)


dropped_sign_run = functools.partial(construction.ChainRun, drop_koszul_sign=True)
"""
BLOCK_LAW_CONTROLS_RUN = f"""
import os
import sys
from smallhom import cli
from smallhom.algebra import CertificationError
assert False, "reached only without -O"
chain._slot_blocks = flipped_slot_blocks
try:
    two_term_pair()
    print("flipped sign: built")
except CertificationError as exc:
    print(f"flipped sign: {{exc}}")
chain._slot_blocks = real_slot_blocks
construction.build_thetas = perturbed_build_thetas
rep = construction.ChainRun(qci_algebra(F3, [3, 3], coproduct="primitive")).run()
print("perturbed theta_chain_maps:", {{v.name: v.passed for v in rep["verdicts"]}}["theta_chain_maps"])
construction.build_thetas = real_build_thetas
cli.ChainRun = dropped_sign_run
print("dropped sign exit:", cli.main({RANK2_CONFIG!r} + ["--out", os.devnull]))
print(f"optimize={{sys.flags.optimize}}")
"""


def _block_law_controls() -> dict:
    scope: dict = {}
    exec(BLOCK_LAW_CONTROLS, scope)
    return scope


def test_flipped_koszul_sign_in_one_block_fails_tensor_pair(monkeypatch):
    controls = _block_law_controls()
    assert controls["two_term_pair"]().complex.dims() == {0: 9, 1: 18, 2: 9}
    monkeypatch.setattr(chain, "_slot_blocks", controls["flipped_slot_blocks"])
    with pytest.raises(CertificationError, match=r"^d_1 d_2 != 0$"):
        controls["two_term_pair"]()


def test_lift_of_a_perturbed_factor_map_fails_theta_chain_maps(monkeypatch):
    controls = _block_law_controls()
    monkeypatch.setattr(construction, "build_thetas", controls["perturbed_build_thetas"])
    rep = ChainRun(algebra.qci_algebra(FieldSpec(3), [3, 3], coproduct="primitive")).run()
    verdicts = {v.name: v.passed for v in rep["verdicts"]}
    assert verdicts["factor_complexes"] is True and verdicts["theta_chain_maps"] is False


def test_dropped_koszul_sign_makes_certify_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "ChainRun", _block_law_controls()["dropped_sign_run"])
    assert run_cli(RANK2_CONFIG) == 2
    assert "theta_chain_maps = fail" in capsys.readouterr().out


def test_block_law_controls_fail_under_optimize(run_optimized):
    run = run_optimized(BLOCK_LAW_CONTROLS + BLOCK_LAW_CONTROLS_RUN)
    assert run.returncode == 0, run.stderr
    assert run.stdout == ("flipped sign: d_1 d_2 != 0\n"
                          "perturbed theta_chain_maps: False\n"
                          "dropped sign exit: 2\n"
                          "optimize=1\n")


# Corruptions that each fail one theta verdict of a rank-2 run, and one
# that leaves a class complex's d_1 pointing at a dropped degree-0 term
THETA_CONTROLS = """
from smallhom import construction

real_build_thetas = construction.build_thetas
real_compose_shifted = construction.compose_shifted
real_induced_on_homology = construction.induced_on_homology
real_chain_complex = construction.ChainComplex
thetas = []


def recorded_build_thetas(*args, **kwargs):
    thetas[:] = real_build_thetas(*args, **kwargs)
    return thetas


def square_to_product(a, b):
    # theta_i theta_i becomes theta_i theta_j, j != i: nonzero on homology
    if a is b and any(a is t for t in thetas):
        b = thetas[1] if a is thetas[0] else thetas[0]
    return real_compose_shifted(a, b)


def corrupted_induced(kind):
    def induced_on_homology(f, classes):
        out = real_induced_on_homology(f, classes)
        if thetas and f is thetas[1]:
            if kind == "sign":  # theta_1 from H_m changes sign: the matrices commute
                out[f.shift] = out[f.shift].scale(-1)
            else:  # theta_1 is zero on homology: theta_1 applied to H_0 is no basis
                out = {j: x.scale(0) for j, x in out.items()}
        return out
    return induced_on_homology


def degree_zero_dropped(algebra, objects, diffs, check=True):
    return real_chain_complex(algebra, {i: M for i, M in objects.items() if i}, diffs, check)


def corrupt(kind):
    construction.build_thetas = recorded_build_thetas
    construction.compose_shifted = square_to_product if kind == "theta_squares_null" else real_compose_shifted
    construction.induced_on_homology = {
        "theta_anticommute": corrupted_induced("sign"),
        "exterior_freeness": corrupted_induced("zero"),
    }.get(kind, real_induced_on_homology)
    construction.ChainComplex = degree_zero_dropped if kind == "zero_object" else real_chain_complex


def failed_verdicts(out):
    return sorted(line.split(" = ")[0].strip() for line in out.splitlines() if line.endswith(" = fail"))
"""
THETA_KINDS = ("theta_squares_null", "theta_anticommute", "exterior_freeness", "zero_object")
ZERO_OBJECT_MESSAGE = "certification error: nonzero differential 1 attached to a zero object\n"
THETA_CONTROLS_RUN = f"""
import contextlib
import io
import sys
from smallhom import cli
assert False, "reached only without -O"
for kind in {THETA_KINDS!r}:
    corrupt(kind)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main({RANK2_CONFIG!r})
    print(f"optimize={{sys.flags.optimize}} {{kind}} exit={{code}} failed={{failed_verdicts(out.getvalue())}}")
"""


@pytest.mark.parametrize("kind", THETA_KINDS)
def test_theta_verdict_controls_exit_2(kind, monkeypatch, capsys):
    scope: dict = {}
    exec(THETA_CONTROLS, scope)
    for name in ("build_thetas", "compose_shifted", "induced_on_homology", "ChainComplex"):
        monkeypatch.setattr(construction, name, getattr(construction, name))  # restored afterwards
    scope["corrupt"](kind)
    assert run_cli(RANK2_CONFIG) == 2
    captured = capsys.readouterr()
    if kind == "zero_object":
        assert captured.out == "" and captured.err == ZERO_OBJECT_MESSAGE
    else:
        assert scope["failed_verdicts"](captured.out) == [kind] and captured.err == ""


def test_theta_verdict_controls_fail_under_optimize(run_optimized):
    run = run_optimized(THETA_CONTROLS + THETA_CONTROLS_RUN)
    failed = {kind: [kind] for kind in THETA_KINDS[:3]}
    assert run.stdout == "".join(f"optimize=1 {kind} exit=2 failed={failed.get(kind, [])}\n"
                                 for kind in THETA_KINDS)
    assert run.stderr == ZERO_OBJECT_MESSAGE


def test_out_of_memory_exits_65(monkeypatch, capsys):
    message = "Unable to allocate 8.93 GiB for an array with shape (23402, 51234) and data type int64"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(construction, "tensor_tower", exhausted)
    assert run_cli(RANK2_CONFIG) == 65
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"budget error: out of memory: {message}\n"


def test_python_m_smallhom_runs_from_a_checkout():
    root = Path(cli.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": "src"}
    run = subprocess.run([sys.executable, "-m", "smallhom", "certify", "--config", "configs/symbolic-rank8.ini"],
                         cwd=root, env=env, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (root / "tests" / "data" / "symbolic-rank8.cert").read_bytes()


def test_package_checks_survive_optimize():
    # python -O strips assert statements, so no certification check may be one
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)], path.name


def test_report_round_trip(tmp_path):
    cert = tmp_path / "cert.txt"
    assert run_cli(["certify", "--mode", "symbolic", "--rank", "8", "--char", "3",
                    "--out", str(cert)]) == 0
    back = tmp_path / "back.txt"
    assert run_cli(["report", str(cert), "--out", str(back)]) == 0
    assert cert.read_bytes() == back.read_bytes()


def test_report_missing_file(capsys):
    assert run_cli(["report", "/nonexistent/cert.txt"]) == 64


def test_tree_parser_inverse():
    tree = {"certificate": {"a": "1", "nest": {"b": "x y", "c": "[1, 2]"}, "z": "done"}}
    text = cli.render_tree(tree)
    assert cli.parse_tree(text) == tree


def test_commutator_parsing_errors():
    with pytest.raises(cli.UsageError):
        cli._parse_commutators("1 2", 3)  # needs 1 or 3 values
    with pytest.raises(cli.UsageError, match="integers"):
        cli._parse_commutators("1 x 2", 3)
    assert cli._parse_commutators("-1", 2) == (-1,)
    assert cli._parse_commutators("2 3 4", 3) == (2, 3, 4)
    assert cli._parse_commutators("1", 1) == ()  # the default, with no pairs


@pytest.mark.parametrize("values", ["2 5 7", "1.5"])
def test_commutators_for_one_generator_are_usage_errors(values, capsys):
    code = run_cli(["certify", "--mode", "chain", "--char", "3", "--exponents", "3",
                    "--coproduct", "primitive", "--commutators", values])
    assert code == 64
    assert "usage error" in capsys.readouterr().err


def test_lefschetz_element_missing_t7_t8_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(lefschetz, "LEFSCHETZ_TERMS", lefschetz.LEFSCHETZ_TERMS[:3])
    assert run_cli(["certify", "--mode", "symbolic", "--rank", "8", "--char", "3"]) == 2
    out = capsys.readouterr().out
    assert "cone_total = fail" in out and "closed_form = fail" in out
    assert "closed_form = total 280 != 2^8 - 2^2 < 2^8" in out


def test_nonprojective_tensor_exits_2(nonprojective_powered_tensor, capsys):
    assert run_cli(["certify", "--mode", "chain", "--char", "3", "--exponents", "3",
                    "--coproduct", "primitive", "--power", "2"]) == 2
    out = capsys.readouterr().out
    assert "lemma_projective = fail" in out and "summary = fail 7/8" in out


def test_selftest_passes(tmp_path, capsys):
    cert = tmp_path / "self.txt"
    code = run_cli(["selftest", "--out", str(cert)])
    assert code == 0
    text = cert.read_text()
    assert "summary = pass 10/10" in text
    assert "control-sign-corruption" in text
