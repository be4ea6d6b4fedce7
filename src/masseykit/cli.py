"""Command-line front end.

One job per invocation: parse a JSON job document (or a named shortcut),
dispatch to the library, and emit one deterministic JSON report with
sorted keys.  Exit codes: 0 success, 1 input error, 2 budget exceeded,
3 a verification scenario failed (which signals an implementation bug,
never a mathematical discovery).
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from . import SIGN_CONVENTION, __version__
from .errors import (
    BudgetExceeded,
    InputError,
    MasseykitError,
    UnknownName,
    UnknownScenario,
)
from . import cohomology as chm
from .gf_core import is_prime
from . import groups as grp
from . import massey as msy
from . import unitriangular as ut

SCENARIOS = ("paper-example", "lemma-i+n", "u3-resolution",
             "exactness-sweep", "formal-h90")

SWEEP_2GROUPS = (
    "cyclic(2)", "cyclic(4)", "cyclic(8)", "cyclic(16)",
    "product(2,2)", "product(2,4)", "product(2,8)", "product(4,4)",
    "elementary(2,3)", "elementary(2,4)",
    "dihedral(8)", "dihedral(16)", "quaternion8", "u3(2)",
)

PRESENTATION_SHORTCUTS = {
    "paper-g": msy.example_group_presentation,
    "paper-h": msy.example_subgroup_presentation,
}


def _jsonable(x):
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.integer,)):
        return int(x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _jsonable(getattr(x, f.name))
                for f in dataclasses.fields(x) if not f.name.startswith("_")}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)


def _serialize_system(ds: Optional[msy.DefiningSystem]):
    if ds is None:
        return None
    return {f"{i},{j}": ds.entry(i, j).values.tolist()
            for (i, j) in sorted(ds.entries)}


def _serialize_lift(lift: msy.UniLift):
    return {
        "shape": {"size": lift.shape.size, "prime": lift.shape.prime,
                  "barred": lift.shape.barred},
        "generator_images": [
            {f"{i},{j}": int(m.entry(i, j)) for (i, j) in lift.shape.positions}
            for m in lift.images],
    }


def _write_report(report: dict, path: Optional[str]) -> None:
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".masseykit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _envelope(command: str, job: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "convention": SIGN_CONVENTION,
        "inputs": {k: v for k, v in job.items() if k != "type"},
    }


def _load_job(args) -> dict:
    job = {}
    if args.input:
        try:
            with open(args.input) as fh:
                job = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read input document: {exc}")
        except json.JSONDecodeError as exc:
            raise InputError(f"input document is not valid JSON: {exc}")
        if not isinstance(job, dict):
            raise InputError("input document must be a JSON object")
    # each subcommand declares only the flags it reads
    for key in ("prime", "budget", "scenario", "modulus_exponent",
                "presentation", "group"):
        if getattr(args, key, None) is not None:
            job[key] = getattr(args, key)
    return job


def _is_int(value) -> bool:
    # a JSON integer: Python's bool is an int, JSON's true is not
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def _int_rows(value) -> bool:
    return isinstance(value, list) and all(_int_list(r) for r in value)


def _job_int(job: dict, key: str, default: int) -> int:
    value = job.get(key, default)
    if not _is_int(value):
        raise InputError(f"{key!r} must be an integer, not {value!r}")
    return value


def _job_prime(job: dict) -> int:
    prime = _job_int(job, "prime", 2)
    # mod-p products past this bound wrap around int64, so the job is
    # refused whether or not the number is prime
    if prime > 1 and (prime - 1) ** 2 >= 2 ** 63:
        raise MasseykitError(f"products mod {prime} overflow int64")
    if not is_prime(prime):
        raise InputError(f"'prime' {prime} is not prime")
    return prime


def _job_presentation(job: dict) -> Optional[grp.Presentation]:
    if "presentation" in job:
        name = job["presentation"]
        if not isinstance(name, str):
            raise InputError(
                f"'presentation' must be a shortcut name, not {name!r}")
        if name not in PRESENTATION_SHORTCUTS:
            raise InputError(f"unknown presentation shortcut {name!r}; "
                             f"known: {sorted(PRESENTATION_SHORTCUTS)}")
        return PRESENTATION_SHORTCUTS[name]()
    if job.get("type") == "presentation" or "relators" in job:
        relators = job.get("relators", [])
        if not _int_rows(relators):
            raise InputError("'relators' must be a list of integer lists")
        try:
            return grp.Presentation(
                _job_int(job, "generators", None),
                tuple(tuple(r) for r in relators),
                label=str(job.get("label", "")))
        except ValueError as exc:
            raise InputError(f"bad presentation document: {exc}")
    return None


def _job_group(job: dict) -> Optional[grp.FiniteGroup]:
    if "group" in job:
        try:
            return grp.catalog(str(job["group"]))
        except UnknownName as exc:
            raise InputError(str(exc))
    if "mul_table" in job:
        if not _int_rows(job["mul_table"]):
            raise InputError("'mul_table' must be a list of integer lists")
        try:
            return grp.FiniteGroup(job["mul_table"],
                                   label=str(job.get("label", "table-group")))
        except ValueError as exc:
            raise InputError(f"bad multiplication table: {exc}")
    return None


def _job_characters(job: dict):
    chars = job.get("characters")
    if chars is None:
        raise InputError("the job document needs a 'characters' list")
    if not _int_rows(chars):
        raise InputError("'characters' must be a list of integer lists")
    return chars


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_massey(job: dict) -> tuple[dict, int]:
    prime = _job_prime(job)
    report = _envelope("massey", job)
    pres = _job_presentation(job)
    if pres is not None:
        rows = _job_characters(job)
        n = len(rows)
        if n < 2:
            raise InputError("need at least two characters")
        budget = _job_int(job, "budget", msy.DEFAULT_LIFT_BUDGET)
        try:
            shape = ut.UniShape(n + 1, prime)
            # the unbarred search has at least as many candidates as the
            # barred one, so running it first lets its input and budget
            # checks stop the job before either search sweeps
            u = msy.lift_search(pres, rows, shape, budget)
            ubar = msy.lift_search(pres, rows, shape.barred_shape(), budget)
        except ValueError as exc:
            raise InputError(str(exc))
        if not ubar:
            status = msy.MasseyStatus.UNDEFINED
        elif u:
            status = msy.MasseyStatus.VANISHES
        else:
            status = msy.MasseyStatus.DEFINED_NOT_VANISHING
        report["verdicts"] = {"status": status.value,
                              "ubar_lift_count": len(ubar),
                              "u_lift_count": len(u)}
        report["witnesses"] = {
            "ubar_lift": _serialize_lift(ubar[0]) if ubar else None,
            "u_lift": _serialize_lift(u[0]) if u else None,
        }
        report["search_stats"] = {
            "ubar_candidates": msy.lift_candidate_count(
                pres, shape.barred_shape()),
            "u_candidates": msy.lift_candidate_count(pres, shape)}
        return report, 0
    group = _job_group(job)
    if group is None:
        raise InputError("massey jobs need a presentation or a finite group")
    rows = _job_characters(job)
    try:
        chars = [chm.character(group, row, prime) for row in rows]
    except ValueError as exc:
        raise InputError(f"bad character: {exc}")
    budget = _job_int(job, "budget", msy.DEFAULT_STATUS_BUDGET)
    try:
        result = msy.massey_status_finite(group, chars, budget)
    except ValueError as exc:
        raise InputError(str(exc))
    report["verdicts"] = {"status": result.status.value}
    report["witnesses"] = {"defining_system": _serialize_system(result.witness)}
    report["search_stats"] = result.search_stats
    return report, 0


def _scenario_paper_example() -> tuple[dict, bool]:
    rep = msy.verify_worked_example()
    detail = _jsonable(rep)
    detail["part1_pass"] = rep.part1_pass
    detail["part2_pass"] = rep.part2_pass
    detail["part3_pass"] = rep.part3_pass
    return detail, rep.all_pass


def _constant_on_diagonals(m: ut.UniMatrix) -> bool:
    by_offset = {}
    for (i, j) in m.shape.positions:
        by_offset.setdefault(j - i, set()).add(m.entry(i, j))
    return all(len(v) == 1 for v in by_offset.values())


def _scenario_lemma_i_plus_n() -> tuple[dict, bool]:
    detail = {}
    ok = True
    for n, p in ((3, 2), (3, 3), (4, 2)):
        shape = ut.UniShape(n + 1, p)
        a = ut.i_plus_n(shape)
        cent = ut.centralizer_of(a)
        cls = ut.conjugacy_class_of(a)
        super_ones = [m for m in ut.enumerate_group(shape)
                      if all(m.entry(i, i + 1) == 1 for i in range(1, n + 1))]
        case = {
            "centralizer_order": len(cent),
            "centralizer_expected": p ** n,
            "centralizer_constant_diagonals":
                all(_constant_on_diagonals(m) for m in cent),
            "class_size": len(cls),
            "class_expected": p ** (n * (n - 1) // 2),
            "class_equals_superdiagonal_ones":
                sorted(m.entries for m in cls)
                == sorted(m.entries for m in super_ones),
        }
        case["pass"] = (case["centralizer_order"] == case["centralizer_expected"]
                        and case["centralizer_constant_diagonals"]
                        and case["class_size"] == case["class_expected"]
                        and case["class_equals_superdiagonal_ones"])
        ok = ok and case["pass"]
        detail[f"n={n},p={p}"] = case
    return detail, ok


def _scenario_u3_resolution() -> tuple[dict, bool]:
    rep = ut.verify_u3_resolution()
    ok = (rep.ranks == (2, 6, 5, 1) and rep.exact and rep.squares_commute)
    return _jsonable(rep), ok


def _scenario_exactness_sweep() -> tuple[dict, bool]:
    detail = {}
    ok = True
    for name in SWEEP_2GROUPS:
        g = grp.catalog(name)
        chars = [c for c in chm.characters_of(g, 2) if c.values.any()]
        exact = []
        for chi in chars:
            rep = chm.four_term_exactness(g, chi)
            exact.append(rep.exact)
        detail[name] = {"characters": len(chars), "all_exact": all(exact)}
        ok = ok and all(exact)
    return detail, ok


def _scenario_formal_h90() -> tuple[dict, bool]:
    detail = {}
    ok = True

    def run(label, group, units, modulus, n_max):
        nonlocal ok
        theta = chm.Orientation(group, modulus, units)
        reports = chm.formal_h90_check(group, theta, n_max)
        per_level = {}
        monotone = True
        by_subgroup = {}
        for r in reports:
            by_subgroup.setdefault(r.subgroup_members, {})[r.level] = r
        for members, levels in by_subgroup.items():
            for n, r in levels.items():
                per_level.setdefault(n, True)
                per_level[n] = per_level[n] and r.reduction_surjective
                below_pass = all(levels[m].reduction_surjective
                                 for m in range(1, n + 1))
                if below_pass and not r.consecutive_surjective:
                    monotone = False
        detail[label] = {
            "reduction_surjective_per_level":
                {str(k): v for k, v in sorted(per_level.items())},
            "monotonicity": monotone,
        }
        ok = ok and monotone
        return per_level

    lvl = run("trivial group", grp.catalog("cyclic(1)"), (1,), 8, 3)
    if not all(lvl.values()):
        ok = False
    z2 = grp.catalog("cyclic(2)")
    lvl = run("Z/2 trivial orientation", z2, (1, 1), 4, 2)
    if lvl[2]:
        ok = False  # expected failure at level 2
    lvl = run("Z/2 unit -1 mod 4", z2, (1, 3), 4, 2)
    detail["Z/2 unit -1 mod 4"]["surjective_at_2"] = lvl[2]
    if not lvl[2]:
        ok = False
    z4 = grp.catalog("cyclic(4)")
    run("Z/4 unit -1 mod 4", z4, (1, 3, 1, 3), 4, 2)
    run("Klein four trivial mod 4", grp.catalog("product(2,2)"),
        (1, 1, 1, 1), 4, 2)
    return detail, ok


def cmd_verify(job: dict) -> tuple[dict, int]:
    scenario = job.get("scenario")
    if not scenario:
        raise InputError("verify needs --scenario")
    if not isinstance(scenario, str):
        raise InputError(f"'scenario' must be a name, not {scenario!r}")
    report = _envelope("verify", job)
    runners = {
        "paper-example": _scenario_paper_example,
        "lemma-i+n": _scenario_lemma_i_plus_n,
        "u3-resolution": _scenario_u3_resolution,
        "exactness-sweep": _scenario_exactness_sweep,
        "formal-h90": _scenario_formal_h90,
    }
    if scenario not in runners:
        raise UnknownScenario(
            f"unknown scenario {scenario!r}; known: {', '.join(SCENARIOS)}")
    detail, ok = runners[scenario]()
    report["verdicts"] = {"scenario": scenario, "pass": ok}
    report["details"] = detail
    return report, 0 if ok else 3


def cmd_cohomology(job: dict) -> tuple[dict, int]:
    group = _job_group(job)
    if group is None:
        raise InputError("cohomology jobs need a finite group")
    prime = _job_prime(job)
    report = _envelope("cohomology", job)
    # degree 2 first: its order cap then refuses a large group before
    # the degree-1 solver is built
    h2 = chm.h_basis(group, 2, prime)
    h1 = chm.h_basis(group, 1, prime)
    cx = chm.cochain_complex(group, prime)
    verdicts = {"h1_dim": len(h1), "h2_dim": len(h2)}
    witnesses = {
        "h1_basis": [c.representative.values.tolist() for c in h1],
        "h2_basis": [cx.flatten(c.representative).tolist() for c in h2],
    }
    bockstein_rows = []
    for c in h1:
        chi = chm.character(group, c.representative.values, prime)
        beta = chm.bockstein(chi)
        bockstein_rows.append(
            cx.h2_coordinates(cx.flatten(beta.representative)).tolist())
    witnesses["bockstein_matrix"] = bockstein_rows
    if prime == 2:
        four = {}
        for idx, c in enumerate(h1):
            chi = chm.character(group, c.representative.values, prime)
            if not chi.values.any():
                continue
            rep = chm.four_term_exactness(group, chi)
            four[f"basis_character_{idx}"] = {
                "exact_at_h1": rep.exact_at_h1, "exact_at_h2": rep.exact_at_h2}
        verdicts["four_term"] = four
    if "orientation" in job:
        n_max = _job_int(job, "modulus_exponent", 1)
        if n_max < 1:
            raise InputError("'modulus_exponent' must be at least 1")
        if n_max > 63:
            # p^n_max is then past 2^63 for every prime; refused before
            # the power, which takes seconds at exponents near 10^7
            raise InputError(f"'modulus_exponent' {n_max} puts the "
                             "modulus above 2^63")
        if not _int_list(job["orientation"]):
            raise InputError("'orientation' must be a list of integers")
        try:
            theta = chm.Orientation(group, prime ** n_max, job["orientation"])
        except ValueError as exc:
            raise InputError(f"bad orientation: {exc}")
        reports = chm.formal_h90_check(group, theta, n_max)
        verdicts["formal_h90"] = [
            {"subgroup": list(r.subgroup_members), "level": r.level,
             "reduction_surjective": r.reduction_surjective,
             "consecutive_surjective": r.consecutive_surjective}
            for r in reports]
    report["verdicts"] = verdicts
    report["witnesses"] = witnesses
    return report, 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 1): argparse's own exit
    code 2 is the budget-exceeded code here."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="masseykit",
        description="Mod-p group cohomology operations and Massey product "
                    "decisions for finite and finitely presented groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", help="JSON job document")
        sp.add_argument("--output", help="write the report here (atomic); "
                                         "default stdout")

    sp = sub.add_parser("massey", help="Massey product status for a "
                                       "character tuple")
    common(sp)
    sp.add_argument("--prime", type=int)
    sp.add_argument("--budget", type=int)
    sp.add_argument("--presentation",
                    help="named presentation shortcut (paper-g, paper-h)")
    sp.add_argument("--group", help="catalog group name")
    sp.add_argument("--characters",
                    help="semicolon-separated value lists, e.g. '1,1;1,0;1,0'")

    sp = sub.add_parser("verify", help="run a bundled verification scenario")
    common(sp)
    sp.add_argument("--scenario",
                    help="one of: " + ", ".join(SCENARIOS))

    sp = sub.add_parser("cohomology", help="dimensions, bases and maps of "
                                           "a finite group")
    common(sp)
    sp.add_argument("--prime", type=int)
    sp.add_argument("--modulus-exponent", dest="modulus_exponent", type=int)
    sp.add_argument("--group", help="catalog group name")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        job = _load_job(args)
        if getattr(args, "characters", None):
            try:
                job["characters"] = [
                    [int(v) for v in row.split(",")]
                    for row in args.characters.split(";")]
            except ValueError as exc:
                raise InputError(f"bad --characters: {exc}")
        handlers = {"massey": cmd_massey, "verify": cmd_verify,
                    "cohomology": cmd_cohomology}
        report, code = handlers[args.command](job)
        _write_report(report, args.output)
        return code
    except (InputError, UnknownScenario) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except MasseykitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
