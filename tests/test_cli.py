"""End-to-end CLI checks: frozen records, exit codes, and format stability.

Everything runs in-process through main(argv) so the tests see exit codes
and captured output without spawning subprocesses.
"""

import json
import time
from pathlib import Path

import pytest

import normset_lab.valnet_sim as vn
from normset_lab import ffd_window, load_net_monoid, parse_net
from normset_lab.cli import build_parser, entry, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), out


# ---------------------------------------------------------------------------
# record contents


def test_classgroup_json(capsys):
    code, rec, raw = run_json(capsys, "classgroup", "--d", "-41")
    assert code == 0
    assert rec["class_number"] == 8
    assert rec["structure"] == "Z_8"
    assert rec["invariant_factors"] == [8]
    assert rec["discriminant"] == -164
    assert rec["schema_version"] == 1
    assert rec["classes"][0] == "(1,0,41)"


def test_classgroup_text(capsys):
    code, out, _ = run(capsys, "classgroup", "--d", "-41")
    assert code == 0
    lines = out.splitlines()
    assert "class_number: 8" in lines
    keys = [ln.split(":", 1)[0] for ln in lines]
    assert keys == sorted(keys)


def test_json_is_byte_stable(capsys):
    _, rec, raw = run_json(capsys, "saturation", "--d", "34")
    assert raw == json.dumps(rec, sort_keys=True, indent=2) + "\n"


def test_no_floats_anywhere(capsys):
    for argv in (("ufd", "--d", "-10"), ("elasticity", "--d", "-14"),
                 ("classgroup", "--d", "34")):
        _, rec, _ = run_json(capsys, *argv)

        def walk(v):
            assert not isinstance(v, float), (argv, v)
            if isinstance(v, dict):
                for t in v.values():
                    walk(t)
            elif isinstance(v, list):
                for t in v:
                    walk(t)

        walk(rec)


def test_ufd_gaussian(capsys):
    code, rec, _ = run_json(capsys, "ufd", "--d", "-1")
    assert code == 0
    assert rec["verdict"] is True
    assert rec["P"] == []
    assert rec["minkowski"] == "31831/25000"
    assert rec["rows"] == []


def test_ufd_d_minus_10(capsys):
    code, rec, _ = run_json(capsys, "ufd", "--d", "-10")
    assert code == 0
    assert rec["verdict"] is False
    assert rec["P"] == [2]
    assert rec["rows"] == [
        {"p": 2, "f": 1, "target": 2, "member": False, "witness": None}
    ]


def test_norm_subcommand(capsys):
    code, rec, _ = run_json(capsys, "norm", "--d", "34", "--elem", "5+1*w")
    assert code == 0
    assert rec["norm"] == -9
    assert rec["order"] == "Z[sqrt(34)]"


def test_norm_negative_leading_element(capsys):
    # a leading minus must not be read as an option
    code, out, err = run(capsys, "norm", "--d", "-5", "--elem", "-3+2w")
    assert code == 0 and not err
    assert "norm: 29" in out.splitlines()
    assert run(capsys, "norm", "--d", "-5", "--elem=-3+2w") == (code, out, err)


def test_normset_member(capsys):
    code, rec, _ = run_json(capsys, "normset", "member", "--d", "34",
                            "--value", "-9")
    assert code == 0
    assert rec["answer"] == "yes"
    assert rec["witness"] == "5+1*w"
    assert rec["backend"] == "ideal_theoretic"


def test_normset_atoms(capsys):
    code, rec, _ = run_json(capsys, "normset", "atoms", "--d", "-1",
                            "--bound", "50")
    assert code == 0
    assert rec["atoms"] == [2, 5, 9, 13, 17, 29, 37, 41, 49]
    assert rec["bound"] == 50


def test_normset_factor(capsys):
    code, rec, _ = run_json(capsys, "normset", "factor", "--d", "-41",
                            "--value", "2025")
    assert code == 0
    assert rec["member"] is True
    assert rec["factorizations"] == [[45, 45], [9, 9, 25]]
    assert rec["lengths"] == [2, 3]


def test_normset_factor_non_member(capsys):
    code, rec, _ = run_json(capsys, "normset", "factor", "--d", "-10",
                            "--value", "3")
    assert code == 0
    assert rec["member"] is False


def test_saturation_record(capsys):
    code, rec, _ = run_json(capsys, "saturation", "--d", "34")
    assert code == 0
    assert rec["saturated"] is True
    sw = rec["strict_window"]
    assert sw["answer"] == "no"
    assert sw["witness"] == [9, -9, -1]
    assert sw["bound_used"] == 500


def test_hfd_records(capsys):
    code, rec, _ = run_json(capsys, "hfd", "--d", "-14")
    assert code == 0
    assert rec["verdict"] == "not_hfd"
    assert rec["element"] == "18+0*w"
    assert rec["witness"]["short"] == ["2+1*w", "-2+1*w"]
    assert rec["witness"]["long"] == ["2+0*w", "3+0*w", "3+0*w"]
    code, rec, _ = run_json(capsys, "hfd", "--d", "-2", "--n", "3")
    assert code == 0
    assert rec["verdict"] == "not_hfd"
    assert rec["method"] == "order_argument"
    code, rec, _ = run_json(capsys, "hfd", "--d", "-3", "--n", "2")
    assert rec["verdict"] == "hfd"


def test_classify_hfd(capsys):
    code, rec, _ = run_json(capsys, "classify-hfd")
    assert code == 0
    assert rec["all_ok"] is True
    assert len(rec["rows"]) == 151


def test_elasticity_record(capsys):
    code, rec, _ = run_json(capsys, "elasticity", "--d", "-14",
                            "--bound", "2000")
    assert code == 0
    assert rec["normset_elasticity"] == "3/2"
    assert rec["witness"] == 324
    assert rec["ring_elasticity_formula"] == "2"


def test_davenport_record(capsys):
    code, rec, _ = run_json(capsys, "davenport", "--group", "3,3")
    assert code == 0
    assert rec["davenport"] == 5
    assert rec["group"] == "Z_3 x Z_3"
    assert len(rec["witness"]) == 4


def test_davenport_budget_exhaustion(capsys):
    # Z_8 x Z_8 once exhausted the search; Olson's formula now answers it
    code, rec, _ = run_json(capsys, "davenport", "--group", "8,8")
    assert code == 0
    assert rec["davenport"] == 15
    assert len(rec["witness"]) == 14
    # rank 3 and not a p-group: the search runs and exhausts its budget
    code, rec, _ = run_json(capsys, "davenport", "--group", "2,2,2,6")
    assert code == 2
    assert rec["answer"] == "unknown"
    assert rec["reason"] == "SearchBudgetExceeded"


def test_davenport_cap_outside_olson(capsys):
    code, rec, _ = run_json(capsys, "davenport", "--group", "2,6,6")
    assert code == 2
    assert rec["answer"] == "unknown"
    assert rec["reason"] == "CapExceeded"


def test_member_bound_above_the_search_ceiling(capsys):
    start = time.perf_counter()
    # 40 is no norm of Z[(1+sqrt 97)/2]: the ideal backend says so unsearched
    code, rec, _ = run_json(capsys, "normset", "member", "--d", "97",
                            "--value", "40", "--bound", "1000000000")
    assert code == 0 and rec["answer"] == "no"
    # 2 is a norm, and its witness search would run to |b| <= 18,176,283:
    # a --bound above the ceiling is refused instead of scanning that far
    code, rec, _ = run_json(capsys, "normset", "member", "--d", "97",
                            "--value", "2", "--bound", "1000000000")
    assert code == 2
    assert rec["reason"] == "NeedsBound" and rec["bound_used"] == 10**9
    assert "18176283" in rec["detail"]
    assert time.perf_counter() - start < 2


# ---------------------------------------------------------------------------
# exit codes and configuration


def test_usage_errors(capsys):
    code, _, err = run(capsys, "classgroup", "--d", "16")
    assert code == 1 and "usage error:" in err
    code, _, err = run(capsys, "classgroup")
    assert code == 1 and "usage error:" in err
    code, _, err = run(capsys, "no-such-command")
    assert code == 1
    code, _, err = run(capsys, "normset", "member", "--d", "-10")
    assert code == 1  # --value required
    code, _, err = run(capsys, "norm", "--d", "34", "--elem", "junk")
    assert code == 1
    for argv in (("classgroup", "--d", "5", "--n", "0"),
                 ("normset", "atoms", "--d", "5", "--bound", "3"),
                 ("valnet", str(GOLDEN_CLI / "m2.net"), "atoms", "--depth", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "usage error:" in err, argv


def test_bound_validation(capsys):
    code, _, err = run(capsys, "normset", "atoms", "--d", "-1", "--bound", "2")
    assert code == 1 and "usage error:" in err


def test_env_bound_override(capsys, monkeypatch):
    monkeypatch.setenv("NORMSET_LAB_BOUND", "60")
    code, rec, _ = run_json(capsys, "normset", "atoms", "--d", "-1")
    assert code == 0
    assert rec["bound"] == 60
    monkeypatch.setenv("NORMSET_LAB_BOUND", "abc")
    code, _, err = run(capsys, "normset", "atoms", "--d", "-1")
    assert code == 1 and "usage error:" in err
    # the variable has the range of --bound
    monkeypatch.setenv("NORMSET_LAB_BOUND", "2")
    code, out, err = run(capsys, "normset", "atoms", "--d", "5")
    assert code == 1 and out == "" and "usage error:" in err


def test_bad_env_bound_fails_only_commands_that_take_bound(capsys, monkeypatch):
    monkeypatch.setenv("NORMSET_LAB_BOUND", "abc")
    for argv in (("classgroup", "--d", "5"), ("davenport", "--group", "3,3")):
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
    code, out, err = run(capsys, "normset", "atoms", "--d", "5")
    assert code == 1 and out == ""
    assert "usage error:" in err and "NORMSET_LAB_BOUND" in err
    # an explicit --bound wins over the variable
    code, rec, _ = run_json(capsys, "normset", "atoms", "--d", "5", "--bound", "20")
    assert code == 0 and rec["bound"] == 20


def test_entry_raises_systemexit(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["normset-lab", "norm", "--d", "-1",
                                     "--elem", "3+2*w"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    rec_out = capsys.readouterr().out
    assert "norm: 13" in rec_out


# ---------------------------------------------------------------------------
# valnet subcommand


SEQ_FILE = "indexset omega_plus_point\nkind sequence_domain\n"
GEN_FILE = (
    "indexset finite M1:discrete M2:discrete\n"
    "kind generated\n"
    "atom M1:2\n"
    "atom M2:2\n"
    "atom M1:1,M2:1\n"
)


@pytest.fixture
def seq_file(tmp_path):
    p = tmp_path / "seq.valnet"
    p.write_text(SEQ_FILE, encoding="utf-8")
    return str(p)


@pytest.fixture
def gen_file(tmp_path):
    p = tmp_path / "gen.valnet"
    p.write_text(GEN_FILE, encoding="utf-8")
    return str(p)


def test_valnet_length_and_member(capsys, seq_file):
    code, rec, _ = run_json(capsys, "valnet", seq_file, "length", "q")
    assert code == 0
    assert rec["length"] == "infinity"
    code, rec, _ = run_json(capsys, "valnet", seq_file, "member", "w3")
    assert code == 0 and rec["member"] is True


def test_valnet_factor_exit_codes(capsys, seq_file, gen_file):
    code, rec, _ = run_json(capsys, "valnet", seq_file, "factor", "w1")
    assert code == 2
    assert rec["status"] == "none_within_depth"
    code, rec, _ = run_json(capsys, "valnet", seq_file, "factor", "1:2,3:3")
    assert code == 0 and rec["status"] == "found"
    assert len(rec["factorization"]) == 5
    code, rec, _ = run_json(capsys, "valnet", gen_file, "factor", "M1:2,M2:2")
    assert code == 0 and rec["status"] == "found"
    assert len(rec["factorization"]) == 2


def test_valnet_sb_and_accp(capsys, seq_file):
    code, rec, _ = run_json(capsys, "valnet", seq_file, "sb", "1:2,3:3")
    assert code == 0
    assert rec["S_b"] == [1, 2, 3, 4, 5]
    assert rec["inf_S_b"] == 1
    code, rec, _ = run_json(capsys, "valnet", seq_file, "accp", "w1", "10")
    assert code == 0 and rec["found"] is True
    assert len(rec["chain"]) == 10
    assert rec["chain"][0] == "(1:0, tail:1, inf:1)"


@pytest.mark.parametrize("which,net,low", [
    ("seq", "1:2,3:3", 1), ("seq", "1:2,inf:1", None), ("gen", "M1:6,M2:4", 2)])
def test_valnet_sb_computes_s_b_once(capsys, monkeypatch, seq_file, gen_file,
                                     which, net, low):
    # inf_S_b is read off the one length set, not computed again
    calls = []
    s_b = vn.S_b
    monkeypatch.setattr(vn, "S_b", lambda *a: calls.append(a) or s_b(*a))
    path = seq_file if which == "seq" else gen_file
    code, rec, _ = run_json(capsys, "valnet", path, "sb", net)
    assert code == 0 and len(calls) == 1
    assert rec["inf_S_b"] == low


def test_valnet_accp_ignores_depth(capsys, gen_file):
    # (40, 40) needs 40 atoms, more than any of these depths
    outs = [run_json(capsys, "valnet", gen_file, "accp", "M1:40,M2:40", "3", *extra)
            for extra in ((), ("--depth", "1"), ("--depth", "64"))]
    assert outs[1] == outs[0] == outs[2]
    code, rec, _ = outs[0]
    assert code == 0 and rec["found"] is True
    assert rec["chain"] == ["(M1:40, M2:40)", "(M1:1, M2:3)", "(M1:1, M2:1)"]


def test_valnet_accp_search_is_fast(capsys, gen_file):
    # the longest chain below (12, 12) has 12 members, so k = 14 tries every
    # descent; an unmemoized depth-first search takes tens of seconds
    start = time.perf_counter()
    code, rec, _ = run_json(capsys, "valnet", gen_file, "accp", "M1:12,M2:12", "14")
    assert time.perf_counter() - start < 5
    assert code == 0 and rec["found"] is False


def test_valnet_cover_and_comax(capsys, seq_file, gen_file):
    code, rec, _ = run_json(capsys, "valnet", seq_file, "cover", "q", "1,2,3")
    assert code == 0 and rec["covered"] is False
    code, rec, _ = run_json(capsys, "valnet", gen_file, "comax",
                            "M1:2,M2:2", "2")
    assert code == 0 and rec["found"] is True
    assert rec["family"] == ["(M1:2)", "(M2:2)"]


def test_valnet_ideal_norm_and_product(capsys, seq_file):
    code, rec, _ = run_json(capsys, "valnet", seq_file, "ideal-norm", "e1;w1")
    assert code == 0
    assert rec["norm"]["tail"] == "0"
    code, rec, _ = run_json(capsys, "valnet", seq_file, "product",
                            "e1;w1", "e2")
    assert code == 0 and rec["additive"] is True


def test_valnet_atoms_and_idempotent(capsys, gen_file, seq_file):
    code, rec, _ = run_json(capsys, "valnet", gen_file, "atoms")
    assert code == 0
    assert rec["atoms"] == ["(M1:2)", "(M2:2)", "(M1:1, M2:1)"]
    code, rec, _ = run_json(capsys, "valnet", seq_file, "idempotent")
    assert code == 0 and rec["covered"] is True


def test_normset_factor_of_unit_is_usage_error(capsys):
    # units are not atoms: a unit member is refused, a non-member -1 is not
    for d, value in (("-5", "1"), ("10", "-1")):
        code, out, err = run(capsys, "normset", "factor", "--d", d,
                             "--value", value, "--format", "json")
        assert code == 1 and out == "" and "usage error:" in err
    code, rec, _ = run_json(capsys, "normset", "factor", "--d", "34", "--value", "-1")
    assert code == 0 and rec["member"] is False


def test_valnet_usage_errors(capsys, seq_file):
    code, _, err = run(capsys, "valnet", seq_file, "factor")
    assert code == 1 and "usage error:" in err
    code, _, err = run(capsys, "valnet", seq_file, "frobnicate", "q")
    assert code == 1
    code, _, err = run(capsys, "valnet", "/nonexistent.valnet", "atoms")
    assert code == 1


@pytest.mark.parametrize("file, net, key", [("m2.net", "M1:1,M1:2", "M1"),
                                             ("seq.net", "1:1,1:2", "1"),
                                             ("seq.net", "1:1,tail:1,tail:1", "tail"),
                                             ("seq.net", "inf:1,inf:1", "inf")])
def test_valnet_repeated_index_is_a_usage_error(capsys, file, net, key):
    # the last value used to win: M1:1,M1:2 listed the divisors of (M1:2)
    code, out, err = run(capsys, "valnet", str(GOLDEN_CLI / file), "divisors", net)
    assert code == 1 and out == ""
    assert f"usage error: {key} is given twice in net '{net}'" in err


@pytest.mark.parametrize("query", ["accp", "comax"])
@pytest.mark.parametrize("k", ["0", "-2", "x"])
def test_valnet_count_must_be_positive(capsys, query, k):
    code, out, err = run(capsys, "valnet", str(GOLDEN_CLI / "m2.net"), query, "M1:4,M2:4", k)
    assert code == 1 and out == ""
    assert f"usage error: valnet {query}: " in err and f"must be an integer >= 1, got '{k}'" in err


# ---------------------------------------------------------------------------
# golden records: stdout and exit code, byte for byte


GOLDEN_CLI = Path(__file__).resolve().parent / "golden" / "cli"

# name -> argv; each tests/golden/cli/<name>.out holds "exit: <code>" and
# then the command's stdout. Net files are read from tests/golden/cli too.
GOLDEN_COMMANDS = {
    "classgroup_-41": "classgroup --d -41",
    "classgroup_34": "classgroup --d 34",
    "classgroup_79": "classgroup --d 79",
    "classgroup_10_2": "classgroup --d 10 --n 2",
    "classgroup_5_3": "classgroup --d 5 --n 3",
    "classgroup_-5_3": "classgroup --d -5 --n 3",
    "classgroup_-65": "classgroup --d -65",
    "member_-10": "normset member --d -10 --value 15",
    "member_-5": "normset member --d -5 --value 6",
    "member_-41": "normset member --d -41 --value 2025",
    "member_10": "normset member --d 10 --value -6",
    "member_34": "normset member --d 34 --value -9",
    "member_97": "normset member --d 97 --value 2",
    "atoms_-10": "normset atoms --d -10 --bound 100",
    "atoms_-5": "normset atoms --d -5 --bound 100",
    "atoms_-41": "normset atoms --d -41 --bound 100",
    "atoms_10": "normset atoms --d 10 --bound 100",
    "atoms_34": "normset atoms --d 34 --bound 100",
    "atoms_97": "normset atoms --d 97 --bound 100",
    "atoms_13_2": "normset atoms --d 13 --n 2 --bound 60",
    "atoms_-1": "normset atoms --d -1 --bound 100",
    "atoms_-3_2": "normset atoms --d -3 --n 2 --bound 100",
    "atoms_2_3": "normset atoms --d 2 --n 3 --bound 100",
    "factor_-10": "normset factor --d -10 --value 196",
    "factor_-5": "normset factor --d -5 --value 36",
    "factor_-41": "normset factor --d -41 --value 2025",
    "factor_10": "normset factor --d 10 --value 36",
    "factor_34": "normset factor --d 34 --value 81",
    "factor_97": "normset factor --d 97 --value 12",
    "ufd_-10": "ufd --d -10",
    "ufd_34": "ufd --d 34",
    "ufd_-163": "ufd --d -163",
    "saturation_34": "saturation --d 34",
    "saturation_-14": "saturation --d -14 --bound 100",
    "saturation_10": "saturation --d 10 --bound 100",
    "saturation_15": "saturation --d 15 --bound 200",
    "hfd_-14": "hfd --d -14",
    "hfd_-14_text": "hfd --d -14 --format text",
    "hfd_-3_2": "hfd --d -3 --n 2",
    "hfd_-3_4": "hfd --d -3 --n 4",
    "hfd_-3_1000": "hfd --d -3 --n 1000",
    "hfd_-7_3": "hfd --d -7 --n 3",
    "norm_-3_3": "norm --d -3 --n 3 --elem -3+2w",
    "norm_13_2": "norm --d 13 --n 2 --elem 5-3w",
    "norm_-5_6": "norm --d -5 --elem 6",
    "norm_-5_1+w": "norm --d -5 --elem 1+w",
    "member_13_2": "normset member --d 13 --n 2 --value -3",
    "member_6_3": "normset member --d 6 --n 3 --value 10",
    "factor_13_2": "normset factor --d 13 --n 2 --value 36",
    "elasticity_-14": "elasticity --d -14",
    "classify_hfd": "classify-hfd",
    "davenport_2_4": "davenport --group 2,4",
    "davenport_16": "davenport --group 16",
    "davenport_2_8": "davenport --group 2,8",
    "davenport_2_2_2_2_2": "davenport --group 2,2,2,2,2",
    "davenport_8_8": "davenport --group 8,8",
    "elasticity_-10007": "elasticity --d -10007 --bound 50",
    "elasticity_-23": "elasticity --d -23 --bound 300",
    "valnet_member": "valnet m2.net member M1:40,M2:40",
    "valnet_accp": "valnet m2.net accp M1:40,M2:40 3",
    "valnet_accp_12": "valnet m2.net accp M1:12,M2:12 14",
    "valnet_divisors": "valnet m2.net divisors M1:6,M2:4",
    "valnet_divisors_30": "valnet m2.net divisors M1:30,M2:30 --depth 16",
    "valnet_seq_divisors_w3": "valnet seq.net divisors w3 --depth 6",
    "valnet_factor": "valnet seq.net factor 1:2,3:3",
    "valnet_seq_comax": "valnet seq.net comax 1:2,3:3 2",
    "valnet_seq_comax_q": "valnet seq.net comax q 40",
    "valnet_seq_sb_w40": "valnet seq.net sb w40",
    "valnet_seq_cover": "valnet seq.net cover w1 2,3,4",
    "valnet_seq_accp": "valnet seq.net accp w1 5",
    "valnet_seq_idempotent": "valnet seq.net idempotent",
    "valnet_omega_dense_idempotent": "valnet omega_dense.net idempotent",
    "valnet_comax": "valnet m2.net comax M1:4,M2:4 2",
    "valnet_cover": "valnet m2.net cover M1:4,M2:4 M1",
    "valnet_sb": "valnet m2.net sb M1:6,M2:4",
    "valnet_bfd": "valnet m2.net bfd M1:3,M2:3",
    "valnet_omega_comax": "valnet omega.net comax 1:2,2:1,tail:1 3",
    "valnet_omega_divisors": "valnet omega.net divisors 1:2,2:1,tail:1",
    "valnet_omega_cover": "valnet omega.net cover 1:2,2:1,tail:1 1,2,9",
    "valnet_omega_cover_inf": "valnet omega.net cover 1:2,2:1,tail:1 1,2,inf",
}


def _golden_argv(cmd: str) -> list[str]:
    argv = [str(GOLDEN_CLI / t) if t.endswith(".net") else t for t in cmd.split()]
    return argv if "--format" in argv else argv + ["--format", "json"]


def test_every_golden_record_has_a_command():
    assert {p.stem for p in GOLDEN_CLI.glob("*.out")} == set(GOLDEN_COMMANDS)


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_cli_output_matches_golden(capsys, name):
    code, out, _ = run(capsys, *_golden_argv(GOLDEN_COMMANDS[name]))
    expected = (GOLDEN_CLI / f"{name}.out").read_text(encoding="utf-8")
    assert f"exit: {code}\n{out}" == expected


def test_valnet_divisor_count_is_ffd_window(capsys):
    # the CLI prints ffd_window's count, which must be that of its list
    cmds = [c for c in GOLDEN_COMMANDS.values() if c.split()[2:3] == ["divisors"]]
    # positive tails in the sequence domain and in a generated monoid
    assert {c.split()[1] for c in cmds} == {"m2.net", "seq.net", "omega.net"}
    for cmd in cmds:
        argv = _golden_argv(cmd)
        depth = int(argv[argv.index("--depth") + 1]) if "--depth" in argv else 32
        m = load_net_monoid(argv[1])
        count = ffd_window(m, parse_net(m, argv[3]), depth)
        _, out, _ = run(capsys, *argv)
        rec = json.loads(out)
        assert (rec["count"], rec["exact"]) == (count.count, count.exact), cmd
        assert len(rec["divisors"]) == rec["count"], cmd


def test_valnet_depth_default_is_the_library_default():
    args = build_parser().parse_args(["valnet", "seq.net", "divisors", "w1"])
    assert args.depth == vn.DEFAULT_DEPTH


@pytest.mark.parametrize("net", ["1:2,inf:1", "1:2,tail:1,inf:2"])
def test_valnet_non_member_sequence_net_lists_no_divisors(capsys, net):
    # the value at infinity is off the tail: no member, no divisors, exactly
    _, out, _ = run(capsys, *_golden_argv(f"valnet seq.net divisors {net}"))
    rec = json.loads(out)
    assert (rec["divisors"], rec["count"], rec["exact"]) == ([], 0, True)
