"""End-to-end checks of the command line driver and its output files."""

import csv
import dataclasses
import gc
import re
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET

import pytest
import scipy.sparse.linalg as spla

from vkmorley import adaptivity
from vkmorley.cli import main, parse_args
from vkmorley.mesh import MeshError
from vkmorley.morley import MorleySpace
from vkmorley.solver import SolverError

HEADER = "level,ntri,ndofs,eta,mu,osc,err_energy,err_h1pw,newton_iters,marked,rate_eta"


def _read_report(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--problem" in out
    assert "--theta" in out
    # --newton-tol names the stop it replaces.
    assert "replacing the default stop ||r||_{A^-1} <= 1e-3 eta" in out
    assert "load-scaled" not in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vkmorley", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "vkmorley" in proc.stdout


def test_uniform_run_writes_report(tmp_path):
    code = main(
        [
            "--problem", "square-poly", "--mode", "uniform",
            "--levels", "4", "--delta", "0.75", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = tmp_path / "report.csv"
    assert report.read_text().splitlines()[0] == HEADER
    rows = _read_report(report)
    assert len(rows) == 4
    assert [int(r["ndofs"]) for r in rows] == [1, 5, 9, 25]
    assert float(rows[-1]["eta"]) < float(rows[0]["eta"])
    for level in range(4):
        assert (tmp_path / f"mesh_L{level}.morleymesh").exists()
    assert not (tmp_path / "mesh_L0.svg").exists()
    assert not (tmp_path / "estimator_L0.csv").exists()


def test_adaptive_run_with_dumps(tmp_path):
    code = main(
        [
            "--problem", "lshape-f1", "--mode", "adaptive", "--theta", "0.4",
            "--levels", "3", "--delta", "0.75", "--out", str(tmp_path),
            "--svg", "--dump-estimator",
        ]
    )
    assert code == 0
    rows = _read_report(tmp_path / "report.csv")
    assert len(rows) == 3
    assert all(r["err_energy"] == "" for r in rows)

    # One drawn triangle per mesh triangle, valid XML.
    for level, rec in enumerate(rows):
        tree = ET.parse(tmp_path / f"mesh_L{level}.svg")
        drawn = [
            el for el in tree.getroot().iter()
            if el.tag.rsplit("}", 1)[-1] in ("path", "polygon")
        ]
        assert len(drawn) == int(rec["ntri"])

        with open(tmp_path / f"estimator_L{level}.csv", newline="") as fh:
            dump = list(csv.DictReader(fh))
        assert len(dump) == int(rec["ntri"])
        total = sum(float(d["eta_sq"]) for d in dump)
        assert total == pytest.approx(float(rec["eta"]) ** 2, rel=1e-12)


def test_axiom_check_mode(tmp_path):
    code = main(
        [
            "--problem", "square-poly", "--mode", "axiom-check",
            "--levels", "3", "--delta", "0.75", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    with open(tmp_path / "axioms.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        for key in ("lambda1_star", "lambda2_star", "delta"):
            assert float(row[key]) >= 0.0
        assert float(row["eta_refined_fine"]) < float(row["eta_refined_coarse"])


def test_unknown_problem_exits_two(tmp_path, capsys):
    code = main(["--problem", "bogus", "--out", str(tmp_path)])
    assert code == 2
    assert "square-poly" in capsys.readouterr().err


def test_invalid_theta_exits_two(tmp_path, capsys):
    code = main(["--theta", "1.5", "--out", str(tmp_path)])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_invalid_newton_tolerance_exits_two(tmp_path, capsys, tol):
    code = main(["--newton-tol", tol, "--out", str(tmp_path)])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_unwritable_output_path(tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("occupied")
    code = main(
        [
            "--problem", "square-poly", "--mode", "uniform", "--levels", "2",
            "--delta", "0.75", "--out", str(blocker),
        ]
    )
    assert code == 2
    assert "output directory" in capsys.readouterr().err


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "problem = square-poly\n"
        "mode = uniform\n"
        "levels = 3\n"
        "delta = 0.75\n"
        "dump-estimator = true\n"
    )
    args = parse_args(["--config", str(cfg), "--levels", "2"])
    assert args.problem == "square-poly"
    assert args.mode == "uniform"
    assert args.levels == 2  # explicit flag beats the file
    assert args.delta == 0.75
    assert args.dump_estimator is True
    # the --flag=value spelling wins too, and file values keep their types
    args = parse_args(["--config", str(cfg), "--delta=0.5", "--levels=4"])
    assert args.delta == 0.5
    assert args.levels == 4
    args = parse_args(["--config", str(cfg)])
    assert args.levels == 3 and isinstance(args.levels, int)
    assert args.delta == 0.75


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("no_such_option = 1\n")
    with pytest.raises(SystemExit):
        parse_args(["--config", str(cfg)])


def test_config_file_rejects_repeated_and_config_keys(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("levels = 2\n# again\nlevels=3\n")
    with pytest.raises(SystemExit, match=r"exp\.cfg:3: duplicate key 'levels'$"):
        parse_args(["--config", str(cfg)])
    cfg.write_text("dump-estimator = true\ndump_estimator = false\n")
    with pytest.raises(SystemExit, match=r"exp\.cfg:2: duplicate key 'dump_estimator'$"):
        parse_args(["--config", str(cfg)])
    cfg.write_text("levels = 2\nconfig = other.cfg\n")
    with pytest.raises(SystemExit, match=r"exp\.cfg:2: .*'config'$"):
        parse_args(["--config", str(cfg)])


@pytest.mark.parametrize("line,error", [
    ("levels =", "invalid levels ''"),
    ("delta = 0.x", "invalid delta '0.x'"),
    ("newton-tol = tight", "invalid newton_tol 'tight'"),
    ("mode = sideways", "invalid mode 'sideways'; choose from adaptive, uniform, axiom-check"),
])
def test_config_file_value_error_names_its_line(tmp_path, line, error):
    # Each file value is converted with its option's type, so a bad one is
    # reported at its line, not as a command-line error.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"problem = square-poly\n{line}\n")
    with pytest.raises(SystemExit, match=rf"exp\.cfg:2: {re.escape(error)}$"):
        parse_args(["--config", str(cfg)])


@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_empty_output_directory_exits_two_before_writing(tmp_path, monkeypatch, capsys, spelling):
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    argv = ["--problem", "square-poly", "--mode", "uniform", "--levels", "1"]
    if spelling == "flag":
        argv += ["--out", ""]
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("out =\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert "output directory" in capsys.readouterr().err
    assert list(run.iterdir()) == []


def test_config_file_rejects_bad_mode(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("mode = sideways\n")
    with pytest.raises(SystemExit):
        parse_args(["--config", str(cfg)])
    cfg.write_text("osc-order = 5\n")
    with pytest.raises(SystemExit, match="osc_order"):
        parse_args(["--config", str(cfg)])


def test_config_file_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(SystemExit):
        parse_args(["--config", str(cfg)])


@pytest.mark.parametrize("content", [None, "directory", "utf-16"])
def test_unreadable_config_file_is_one_line_error(tmp_path, content):
    cfg = tmp_path / "exp.cfg"
    if content == "directory":
        cfg.mkdir()
    elif content == "utf-16":
        cfg.write_bytes("levels = 3\n".encode("utf-16"))
    with pytest.raises(SystemExit, match=r"^cannot read config file .*exp\.cfg: "):
        parse_args(["--config", str(cfg)])


def test_missing_config_file_exits_without_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "vkmorley", "--config", str(tmp_path / "missing.cfg")],
        capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert proc.stderr.startswith("cannot read config file")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("word,value", [("1", True), ("On", True), ("no", False),
                                        ("FALSE", False), ("off", False)])
def test_config_file_booleans(tmp_path, word, value):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"svg = {word}\n")
    assert parse_args(["--config", str(cfg)]).svg is value


@pytest.mark.parametrize("word", ["maybe", "2", ""])
def test_config_file_rejects_bad_boolean(tmp_path, word):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"svg = {word}\n")
    with pytest.raises(SystemExit, match="invalid svg"):
        parse_args(["--config", str(cfg)])


@pytest.mark.parametrize("blocked, mode", [("mesh_L0.morleymesh", "uniform"),
                                           ("report.csv", "uniform"),
                                           ("axioms.csv", "axiom-check")])
def test_write_failure_aborts_naming_the_path(tmp_path, capsys, blocked, mode):
    # A directory where a level's file, report.csv or axioms.csv goes: the
    # run ends in one line naming the path, not in a traceback.
    out = tmp_path / "runs" / "o1"
    (out / blocked).mkdir(parents=True)
    code = main(["--problem", "square-poly", "--mode", mode, "--levels", "2",
                 "--delta", "0.5", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"run aborted: cannot write {out / blocked}: Is a directory"]
    assert (out / blocked).is_dir()


def test_prerefinement_beyond_the_dof_cap_fails_fast(tmp_path, capsys):
    # delta 1e-4 would need about 26 uniform refinements of the square.
    code = main(["--delta", "1e-4", "--max-ndofs", "1000", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "exceeds the dof cap 1000" in err[0]
    assert tmp_path.is_dir()


def test_prerefinement_past_the_cap_aborts_before_solving(tmp_path, capsys):
    # 2,048 triangles already have 3,969 dofs; delta 0.02 needs 4,096.
    args = ["--problem", "square-poly", "--mode", "uniform", "--delta", "0.02"]
    code = main(args + ["--max-ndofs", "2100", "--out", str(tmp_path / "over")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("run aborted:")
    assert main(args + ["--max-ndofs", "8065", "--levels", "1", "--out", str(tmp_path)]) == 0
    rows = _read_report(tmp_path / "report.csv")
    assert [r["ndofs"] for r in rows] == ["8065"]


def test_aborted_run_removes_the_directories_it_created(tmp_path):
    out = tmp_path / "runs" / "o1"
    assert main(["--delta", "1e-4", "--max-ndofs", "1000", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_aborted_run_keeps_a_directory_that_has_content(tmp_path):
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "notes.txt").write_text("mine")
    assert main(["--delta", "1e-4", "--max-ndofs", "1000",
                 "--out", str(tmp_path / "runs" / "o1")]) == 1
    assert [p.name for p in (tmp_path / "runs").iterdir()] == ["notes.txt"]


def test_abort_after_solved_levels_keeps_their_files(tmp_path, monkeypatch, capsys):
    solve = adaptivity.newton_solve
    calls = []

    def failing_on_level_two(*args, **kwargs):
        state, report = solve(*args, **kwargs)
        calls.append(report)
        if len(calls) == 3:
            report = dataclasses.replace(report, converged=False)
        return state, report

    monkeypatch.setattr(adaptivity, "newton_solve", failing_on_level_two)
    out = tmp_path / "runs" / "o1"
    code = main(["--problem", "square-poly", "--mode", "uniform", "--levels", "5",
                 "--delta", "0.75", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("run aborted: Newton failed on level 2")
    assert sorted(p.name for p in out.iterdir()) == ["mesh_L0.morleymesh", "mesh_L1.morleymesh"]


@pytest.mark.parametrize("error", [MeshError, SolverError])
@pytest.mark.parametrize("level, kept", [(0, None), (2, ["mesh_L0.morleymesh",
                                                         "mesh_L1.morleymesh"])])
def test_domain_error_mid_run_aborts_like_a_failed_solve(tmp_path, monkeypatch, capsys,
                                                         error, level, kept):
    build = adaptivity.build_space
    calls = []

    def failing(mesh):
        calls.append(mesh)
        if len(calls) == level + 1:
            raise error(f"injected on level {level}")
        return build(mesh)

    monkeypatch.setattr(adaptivity, "build_space", failing)
    out = tmp_path / "runs" / "o1"
    code = main(["--problem", "square-poly", "--mode", "uniform", "--levels", "5",
                 "--delta", "0.75", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"run aborted: injected on level {level}"]
    if kept is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert sorted(p.name for p in out.iterdir()) == kept


@pytest.mark.parametrize("error", [RuntimeError, MemoryError, SystemError])
def test_failed_factorisation_aborts_the_run(tmp_path, monkeypatch, capsys, error):
    # SuperLU reports running out of memory as any of these; each ends the
    # run like a failed solve, not in a traceback.
    def splu(A, **kwargs):
        raise error("out of memory")

    monkeypatch.setattr(spla, "splu", splu)
    out = tmp_path / "runs" / "o1"
    code = main(["--problem", "square-poly", "--levels", "1", "--delta", "0.5",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("run aborted: sparse factorization of 5 dofs")
    assert list(tmp_path.iterdir()) == []


def test_axiom_check_run_holds_at_most_one_earlier_level(tmp_path, monkeypatch):
    # The previous level's space is alive while the next one is built (its
    # state is prolongated), but no earlier space is while Newton solves:
    # axiom-check mode keeps only the mesh, Hessians and indicators.
    build, solve = adaptivity.build_space, adaptivity.newton_solve
    spaces = []
    alive = []  # earlier levels' spaces still alive when the next one is built
    at_solve = []  # earlier levels' spaces still alive when it is solved

    def tracked(mesh):
        gc.collect()
        alive.append(sum(ref() is not None for ref in spaces))
        space = build(mesh)
        spaces.append(weakref.ref(space))
        return space

    def tracked_solve(space, *args, **kwargs):
        gc.collect()
        at_solve.append(sum(ref() is not None for ref in spaces[:-1]))
        return solve(space, *args, **kwargs)

    monkeypatch.setattr(adaptivity, "build_space", tracked)
    monkeypatch.setattr(adaptivity, "newton_solve", tracked_solve)
    code = main(["--problem", "square-poly", "--mode", "axiom-check", "--levels", "6",
                 "--delta", "0.75", "--dump-estimator", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "axioms.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 5
    assert alive == [0, 1, 1, 1, 1, 1]
    assert at_solve == [0] * 6


def test_axiom_check_reads_each_levels_hessians_once(tmp_path, monkeypatch):
    # The AxiomLevel takes the Hessians of both fields at once, a (2, n)
    # block of coefficients; the estimator and the forms take one field at
    # a time.
    element_hessians = MorleySpace.element_hessians
    blocks = []

    def counted(space, coeffs):
        if coeffs.ndim == 2:
            blocks.append(space.mesh.n_triangles)
        return element_hessians(space, coeffs)

    monkeypatch.setattr(MorleySpace, "element_hessians", counted)
    code = main(["--problem", "square-poly", "--mode", "axiom-check", "--levels", "3",
                 "--delta", "0.75", "--out", str(tmp_path)])
    assert code == 0
    assert len(blocks) == 3 and len(set(blocks)) == 3
