import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from masseykit import cli
from masseykit import groups as grp
from masseykit.errors import BudgetExceeded


def run(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = cli.main(list(args) + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_massey_example_presentation(tmp_path):
    code, rep = run(["massey", "--presentation", "paper-g",
                     "--characters", "1,1;1,0;1,0"], tmp_path)
    assert code == 0
    assert rep["verdicts"]["status"] == "DefinedNotVanishing"
    assert rep["verdicts"]["ubar_lift_count"] >= 1
    assert rep["verdicts"]["u_lift_count"] == 0
    assert rep["search_stats"]["u_candidates"] == 64
    assert rep["witnesses"]["ubar_lift"] is not None
    assert rep["witnesses"]["u_lift"] is None


def test_massey_cup_pair_not_vanishing(tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({
        "type": "finite-group", "group": "cyclic(2)", "prime": 2,
        "characters": [[0, 1], [0, 1]]}))
    code, rep = run(["massey", "--input", str(doc)], tmp_path)
    assert code == 0
    assert rep["verdicts"]["status"] == "DefinedNotVanishing"


def test_massey_zero_factor_vanishes(tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({
        "type": "finite-group", "group": "quaternion8", "prime": 2,
        "characters": [[0, 0, 1, 1, 0, 0, 1, 1], [0] * 8,
                       [0, 0, 0, 0, 1, 1, 1, 1]]}))
    code, rep = run(["massey", "--input", str(doc)], tmp_path)
    assert code == 0
    assert rep["verdicts"]["status"] == "Vanishes"
    assert rep["witnesses"]["defining_system"] is not None


def test_verify_scenarios_pass(tmp_path):
    for scenario in ("paper-example", "lemma-i+n", "u3-resolution",
                     "formal-h90"):
        code, rep = run(["verify", "--scenario", scenario], tmp_path)
        assert code == 0, scenario
        assert rep["verdicts"]["pass"] is True


def test_cohomology_dims(tmp_path):
    code, rep = run(["cohomology", "--group", "product(2,2)"], tmp_path)
    assert code == 0
    assert rep["verdicts"]["h1_dim"] == 2
    assert rep["verdicts"]["h2_dim"] == 3
    assert all(v["exact_at_h1"] and v["exact_at_h2"]
               for v in rep["verdicts"]["four_term"].values())


def test_cohomology_formal_h90_probe(tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({
        "type": "finite-group", "group": "cyclic(2)", "prime": 2,
        "orientation": [1, 1], "modulus_exponent": 2}))
    code, rep = run(["cohomology", "--input", str(doc)], tmp_path)
    assert code == 0
    whole = [r for r in rep["verdicts"]["formal_h90"]
             if len(r["subgroup"]) == 2 and r["level"] == 2]
    assert whole and not whole[0]["reduction_surjective"]


def test_reports_byte_identical(tmp_path):
    args = ["massey", "--presentation", "paper-g",
            "--characters", "1,1;1,0;1,0"]
    cli.main(args + ["--output", str(tmp_path / "a.json")])
    cli.main(args + ["--output", str(tmp_path / "b.json")])
    assert (tmp_path / "a.json").read_bytes() \
        == (tmp_path / "b.json").read_bytes()


def test_exit_code_input_error(tmp_path, capsys):
    assert cli.main(["massey", "--input", str(tmp_path / "missing.json")]) == 1
    assert cli.main(["verify", "--scenario", "nope"]) == 1
    doc = tmp_path / "bad.json"
    doc.write_text("{not json")
    assert cli.main(["massey", "--input", str(doc)]) == 1
    doc2 = tmp_path / "nochars.json"
    doc2.write_text(json.dumps({"type": "finite-group",
                                "group": "cyclic(2)"}))
    assert cli.main(["massey", "--input", str(doc2)]) == 1
    doc3 = tmp_path / "badgroup.json"
    doc3.write_text(json.dumps({"type": "finite-group",
                                "group": "sporadic(1)",
                                "characters": [[0, 1]]}))
    assert cli.main(["massey", "--input", str(doc3)]) == 1


def test_exit_code_budget(tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({
        "type": "presentation", "generators": 2,
        "relators": [[1, 1, 2, -1, -1, -2]],
        "characters": [[1, 1], [1, 0], [1, 0]], "budget": 4}))
    assert cli.main(["massey", "--input", str(doc)]) == 2


def test_explicit_presentation_document(tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({
        "type": "presentation", "generators": 2, "label": "example",
        "relators": [[1, 1, 2, -1, -1, -2]],
        "characters": [[1, 1], [1, 0], [1, 0]]}))
    code, rep = run(["massey", "--input", str(doc)], tmp_path)
    assert code == 0
    assert rep["verdicts"]["status"] == "DefinedNotVanishing"


def test_cohomology_quaternion_four_term(tmp_path):
    code, rep = run(["cohomology", "--group", "quaternion8"], tmp_path)
    assert code == 0
    assert rep["verdicts"]["h1_dim"] == 2
    assert all(v["exact_at_h1"] and v["exact_at_h2"]
               for v in rep["verdicts"]["four_term"].values())


def test_paper_h_shortcut(tmp_path):
    # the shipped kernel presentation: its mod-2 characters are
    # three-generator rows
    code, rep = run(["massey", "--presentation", "paper-h",
                     "--characters", "0,1,0;0,1,0"], tmp_path)
    assert code == 0
    assert rep["verdicts"]["status"] in ("Vanishes", "DefinedNotVanishing")


def test_stdout_report(capsys):
    code = cli.main(["verify", "--scenario", "u3-resolution"])
    assert code == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["verdicts"]["pass"] is True


def test_massey_bad_shape_is_input_error(capsys):
    q8 = "0,0,1,1,0,0,1,1"
    for args in (["--group", "quaternion8", "--characters", q8],
                 ["--presentation", "paper-g", "--prime", "4",
                  "--characters", "1,1;1,0;1,0"],
                 ["--presentation", "paper-g", "--budget", "4",
                  "--characters", "1,1,1;1,0;1,0"]):
        assert cli.main(["massey"] + args) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("input error:"), err
        assert "Traceback" not in err


def test_massey_five_characters_match_presentation_route(tmp_path):
    # n = 5 is decided by the finite route as by the lift search into
    # U(6, 2) on the group's presentation
    q8 = [0, 0, 1, 1, 0, 0, 1, 1]
    code, finite = run(["massey", "--group", "quaternion8", "--characters",
                        ";".join([",".join(map(str, q8))] * 5)], tmp_path)
    assert code == 0
    g = grp.catalog("quaternion8")
    pres = g.known_presentation
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({
        "type": "presentation", "generators": pres.generator_count,
        "relators": [list(r) for r in pres.relators],
        "characters": [[q8[x] for x in g.generator_map]] * 5}))
    code, lifted = run(["massey", "--input", str(doc)], tmp_path, "lift.json")
    assert code == 0
    assert finite["verdicts"]["status"] == lifted["verdicts"]["status"] \
        == "Undefined"


def test_massey_long_tuple_exceeds_budget(tmp_path, capsys):
    # 1,200 characters: offset 2 alone leaves 2^1199 combinations, and the
    # layered search keeps no recursion that grows with n
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({
        "type": "finite-group", "group": "cyclic(4)", "prime": 2,
        "characters": [[0, 1, 0, 1]] * 1200}))
    assert cli.main(["massey", "--input", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded:"), err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_bad_job_values_are_input_errors(tmp_path, capsys):
    paper_g = {"type": "presentation", "generators": 2,
               "relators": [[1, 1, 2, -1, -1, -2]],
               "characters": [[1, 1], [1, 0], [1, 0]]}
    finite = {"type": "finite-group", "group": "cyclic(2)",
              "characters": [[0, 1], [0, 1]]}
    probe = {"type": "finite-group", "group": "cyclic(2)",
             "orientation": [1, 1], "modulus_exponent": 2}
    jobs = [("massey", dict(finite, prime="x")),
            ("massey", dict(finite, budget="x")),
            ("massey", dict(paper_g, prime="x")),
            ("massey", dict(paper_g, budget="x")),
            ("cohomology", dict(probe, modulus_exponent="z")),
            ("cohomology", dict(probe, modulus_exponent=0)),
            ("cohomology", dict(probe, orientation=[1])),
            ("cohomology", dict(probe, orientation=[1, 2])),
            ("cohomology", dict(probe, orientation=None)),
            ("massey", dict(paper_g, presentation={"name": "paper-g"})),
            ("massey", dict(paper_g, presentation=["paper-g"])),
            ("massey", dict(paper_g, characters=[[1, None], [1, 0]])),
            ("massey", dict(finite, characters=[[0, {}], [0, 1]])),
            # JSON numbers that are not integers, and booleans, are refused
            # rather than truncated or coerced
            ("massey", dict(finite, prime=2.9)),
            ("massey", dict(finite, budget=True)),
            ("massey", dict(paper_g, generators=2.9)),
            ("massey", dict(paper_g, relators=[[1, 1.5]])),
            ("massey", dict(finite, characters=[[0, True], [0, 1]])),
            ("massey", dict(finite, characters=[[False, 1], [0, 1]])),
            ("cohomology", dict(probe, modulus_exponent=2.0)),
            ("cohomology", dict(probe, orientation=[1, 3.9, 1, 3.2],
                                group="cyclic(4)")),
            ("cohomology", dict(probe, orientation=[True, True])),
            # units past int64, and scenarios that are not names
            ("cohomology", dict(probe, modulus_exponent=70)),
            ("cohomology", dict(probe, modulus_exponent=10 ** 9)),
            ("verify", {"scenario": ["x"]}),
            ("verify", {"scenario": {"name": "u3-resolution"}})]
    for table in ([[0, 1.7], [1.2, 0]], [["0", "1"], ["1", "0"]],
                  [[False, True], [True, False]], [[0, 1], 5], "01"):
        jobs += [("cohomology", {"mul_table": table}),
                 ("massey", {"mul_table": table,
                             "characters": [[0, 1], [0, 1]]})]
    for prime in (0, 1, 4):
        jobs += [("massey", dict(finite, prime=prime)),
                 ("massey", dict(paper_g, prime=prime)),
                 ("cohomology", dict(probe, prime=prime))]
    for k, (command, document) in enumerate(jobs):
        doc = tmp_path / f"job{k}.json"
        doc.write_text(json.dumps(document))
        assert cli.main([command, "--input", str(doc)]) == 1, document
        err = capsys.readouterr().err
        assert err.startswith("input error:"), (document, err)
        assert "Traceback" not in err
        if isinstance(document.get("prime"), int):
            assert err.endswith("is not prime\n"), err


def test_usage_errors_exit_1(capsys):
    # argparse would exit 2, the budget-exceeded code; each subcommand
    # takes only the flags it reads
    for argv in (["massey", "--prime", "abc"], ["verify", "--budget", "x"],
                 ["bogus"], [], ["massey", "--modulus-exponent", "2"],
                 ["cohomology", "--budget", "3"],
                 ["verify", "--scenario", "u3-resolution", "--prime", "2"]):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("input error:"), (argv, err)


def test_oversized_catalog_names_build_nothing(monkeypatch, capsys):
    # the order comes from the name, so neither a table nor a primality
    # test of a large number is started before the budget refuses it
    def refuse(*args):
        raise AssertionError("work started past the closure budget")

    monkeypatch.setattr(grp.FiniteGroup, "__init__", refuse)
    monkeypatch.setattr(grp, "is_prime", refuse)
    big = "1000000000000000000000007"
    for name in ("cyclic(100000)", f"u3({big})", f"elementary({big},1)",
                 "elementary(2,1000000000000)", "u4(5)", "dihedral(8194)"):
        with pytest.raises(BudgetExceeded):
            grp.catalog(name)
        assert cli.main(["cohomology", "--group", name]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:"), (name, err)
        assert "Traceback" not in err
    # more digits than int() converts
    assert cli.main(["cohomology", "--group", f"cyclic({'9' * 5000})"]) == 1
    assert capsys.readouterr().err.startswith("input error:")


def test_prime_past_int64_products_is_an_error(capsys):
    # (p - 1)^2 >= 2^63: the mod-p arithmetic would wrap around
    argv = ["cohomology", "--group", "cyclic(3)", "--prime", "4294967311"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow" in err, err


def test_huge_prime_is_refused_before_any_primality_test(monkeypatch,
                                                         capsys):
    # trial division up to 10^9 used to run before the int64 guard
    def refuse(*args):
        raise AssertionError("primality test started")

    monkeypatch.setattr(cli, "is_prime", refuse)
    prime = "1000000000000000003"
    for argv in (["cohomology", "--group", "cyclic(2)"],
                 ["massey", "--group", "cyclic(2)",
                  "--characters", "0,1;0,1"]):
        assert cli.main(argv + ["--prime", prime]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err, err


def test_orientation_units_multiply_exactly(tmp_path):
    # (-1)^2 = 1 mod 3^20, although (3^20 - 1)^2 overflows int64; |G| = 2
    # is prime to 3, so every H^1 vanishes and every map is onto
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({
        "group": "cyclic(2)", "prime": 3, "modulus_exponent": 20,
        "orientation": [1, -1]}))
    code, rep = run(["cohomology", "--input", str(doc)], tmp_path)
    assert code == 0
    reports = rep["verdicts"]["formal_h90"]
    assert len(reports) == 40
    assert all(r["reduction_surjective"] and r["consecutive_surjective"]
               for r in reports)


def test_orientation_at_a_large_prime_is_quick(tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({"orientation": [1, 1]}))
    start = time.perf_counter()
    code, rep = run(["cohomology", "--group", "cyclic(2)", "--prime",
                     "2147483647", "--input", str(doc)], tmp_path)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert len(rep["verdicts"]["formal_h90"]) == 2


def test_lift_budget_fails_before_any_sweep(tmp_path, capsys):
    # four characters on elementary(2,4): 2^20 barred candidates fit the
    # default budget, the 2^24 unbarred ones do not, and the job must stop
    # before sweeping the barred shape
    pres = grp.catalog("elementary(2,4)").known_presentation
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({
        "type": "presentation", "generators": pres.generator_count,
        "relators": [list(r) for r in pres.relators],
        "characters": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                       [0, 0, 0, 1]]}))
    start = time.perf_counter()
    assert cli.main(["massey", "--input", str(doc)]) == 2
    assert time.perf_counter() - start < 2.0
    assert str(2 ** 24) in capsys.readouterr().err


def test_cohomology_refuses_large_groups_before_degree_one():
    # degree 2's order cap must refuse the job before the degree-1
    # solver is built, interpreter start included
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name in ("cyclic(1024)", "u4(3)"):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "masseykit.cli", "cohomology",
             "--group", name], env=env, capture_output=True, text=True,
            timeout=60)
        assert time.perf_counter() - start < 3.0, name
        assert proc.returncode == 2, proc.stderr
        assert "capped at order 32" in proc.stderr


Q44_N3 = [[0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0]] * 3
Q44_N4 = [[0, 1] * 8] * 4

# sha256 of the reports of fixed jobs; a change that keeps the verdicts,
# witnesses and counts keeps every byte
PINNED_REPORTS = [
    (["massey", "--presentation", "paper-g", "--characters", "1,1;1,0;1,0"],
     None,
     "3d552824f7c71040c41093809a103a314c0832c024861882e30076e47c3d6d98"),
    (["massey"],
     {"type": "finite-group", "group": "quaternion8", "prime": 2,
      "characters": [[0, 0, 1, 1, 0, 0, 1, 1], [0] * 8,
                     [0, 0, 0, 0, 1, 1, 1, 1]]},
     "c59c752e9265707ea90c30953095e7aefcf88e91c19ad1da9315340d7de6b3b1"),
    (["massey"],
     {"type": "finite-group", "group": "product(4,4)", "prime": 2,
      "characters": Q44_N3},
     "83bb0671cf58d684aa7aabcfb9fb70de92c62ac965e5c36e51f7a24c75cdcafc"),
    (["massey"],
     {"type": "finite-group", "group": "product(4,4)", "prime": 2,
      "characters": Q44_N4},
     "79de8c0e79a011d6ffd2fe73505c5a6581d9a47edcc4023e55c7a3536b4463a2"),
    (["cohomology", "--group", "dihedral(8)"], None,
     "c1af317df14a4dab7daaee311b0bb79228f8a00b5a52b7ec4f67c2569103743c"),
    (["cohomology", "--group", "elementary(2,3)"], None,
     "59cb9fadf7c27a711c7b2de0e48bbff9389b93794c044837628c5919c47670bc"),
    (["verify", "--scenario", "u3-resolution"], None,
     "db18955c352a4de245575e5ca16d2ff4e9b71a9bb3a49a1884d33af062f230e6"),
]


def test_reports_match_pinned_digests(tmp_path):
    for k, (args, document, digest) in enumerate(PINNED_REPORTS):
        if document is not None:
            doc = tmp_path / f"job{k}.json"
            doc.write_text(json.dumps(document))
            args = args + ["--input", str(doc)]
        out = tmp_path / f"report{k}.json"
        assert cli.main(args + ["--output", str(out)]) == 0, args
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args
