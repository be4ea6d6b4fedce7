import json

from masseykit import cli


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
                 ["--group", "quaternion8",
                  "--characters", ";".join([q8] * 5)],
                 ["--presentation", "paper-g", "--prime", "4",
                  "--characters", "1,1;1,0;1,0"]):
        assert cli.main(["massey"] + args) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("input error:"), err
        assert "Traceback" not in err
