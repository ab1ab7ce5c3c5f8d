"""Command line driver for convergence and estimator experiments.

Example:

    vkmorley --problem square-poly --mode uniform --levels 5 --out runs/p1
    vkmorley --problem lshape-f1 --mode adaptive --theta 0.3 --svg --out runs/ad

Options may also come from a config file of flat key=value lines
(--config); explicit command line flags win over file values.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .adaptivity import (AmfemConfig, AxiomDiagnostics, AxiomLevel, amfem_run, axiom_check,
                         uniform_run)
from .mesh import MeshError, write_mesh, write_svg
from .problems import get_problem
from .solver import SolverError

logger = logging.getLogger(__name__)

_MODES = ("adaptive", "uniform", "axiom-check")
# The columns of axioms.csv after the pair's level.
_AXIOM_COLUMNS = [f.name for f in fields(AxiomDiagnostics)]
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _parse_config_file(path: Path) -> dict[str, tuple[int, str]]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"cannot read config file {path}: {exc}") from None
    values = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise SystemExit(f"{path}:{ln}: duplicate key {key!r}")
        if key == "config":
            raise SystemExit(f"{path}:{ln}: a config file cannot set 'config'")
        values[key] = ln, val.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vkmorley",
        description="Adaptive Morley solver for the clamped von Karman plate system.",
    )
    p.add_argument("--problem", default="square-poly",
                   help="problem id from the registry (default: %(default)s)")
    p.add_argument("--mode", choices=_MODES, default="adaptive")
    p.add_argument("--theta", type=float, default=0.3,
                   help="bulk marking fraction (default: %(default)s)")
    p.add_argument("--delta", type=float, default=0.3,
                   help="pre-refine until sqrt(area) <= delta (default: %(default)s)")
    p.add_argument("--levels", type=int, default=10, help="maximum number of levels")
    p.add_argument("--max-ndofs", type=int, default=200_000)
    p.add_argument("--newton-tol", type=float, default=None,
                   help="absolute bound on the Euclidean Newton residual, replacing the "
                        "default stop ||r||_{A^-1} <= 1e-3 eta at the discretisation error")
    p.add_argument("--osc-order", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--dump-estimator", action="store_true",
                   help="write per-triangle indicator tables per level")
    p.add_argument("--svg", action="store_true", help="write mesh images per level")
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.add_argument("-v", "--verbose", action="store_true")
    return p


def parse_args(argv=None) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        actions = {action.dest: action for action in parser._actions}
        defaults = {}
        for key, (ln, val) in _parse_config_file(Path(args.config)).items():
            if not hasattr(args, key):
                raise SystemExit(f"{args.config}: unknown option {key!r}")
            # argparse converts and checks command-line values only.
            flag = isinstance(actions[key].default, bool)
            convert, choices = ((str.lower, _BOOLEANS) if flag else
                                (actions[key].type or str, actions[key].choices))
            try:
                value = convert(val)
                if choices is not None and value not in choices:
                    raise ValueError
            except ValueError:
                allowed = f"; choose from {', '.join(map(str, choices))}" if choices else ""
                raise SystemExit(f"{args.config}:{ln}: invalid {key} {val!r}{allowed}") from None
            defaults[key] = _BOOLEANS[value] if flag else value
        # File values become defaults, so every explicit flag still wins.
        parser.set_defaults(**defaults)
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        problem = get_problem(args.problem)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    try:
        cfg = AmfemConfig(
            theta=args.theta,
            delta=args.delta,
            max_levels=args.levels,
            max_ndofs=args.max_ndofs,
            osc_order=args.osc_order,
            newton_tol=args.newton_tol,
        )
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    if not args.out:
        print("invalid output directory: empty path", file=sys.stderr)
        return 2
    out = Path(args.out)
    # The directories this run creates, deepest first.
    created = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 2

    axioms = []  # (pair, diagnostics) rows of axioms.csv
    prev = None  # what axiom_check reads of the previous level: no space, no state

    def write_level(row, arts) -> None:
        nonlocal prev
        write_mesh(arts.mesh, out / f"mesh_L{row.level}.morleymesh")
        if args.svg:
            write_svg(arts.mesh, out / f"mesh_L{row.level}.svg")
        if args.dump_estimator:
            arts.report.to_csv(out / f"estimator_L{row.level}.csv")
        if args.mode == "axiom-check":
            hessians = arts.space.element_hessians(arts.state.coeffs)
            coarse, prev = prev, AxiomLevel(arts.mesh, hessians, arts.report)
            if coarse is not None:
                axioms.append((row.level - 1, axiom_check(coarse, prev)))

    run = amfem_run if args.mode == "adaptive" else uniform_run
    try:
        result = run(problem, cfg, write_level)
        result.report.to_csv(out / "report.csv")
        if args.mode == "axiom-check":
            with (out / "axioms.csv").open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["pair", *_AXIOM_COLUMNS])
                writer.writerows([level, *(f"{getattr(d, c):.17g}" for c in _AXIOM_COLUMNS)]
                                 for level, d in axioms)
            logger.info("wrote %s", out / "axioms.csv")
        logger.info("wrote %s", out / "report.csv")
        return 0
    except OSError as exc:  # a level's files, report.csv or axioms.csv
        message = f"cannot write {exc.filename or out}: {exc.strerror or exc}"
    except (RuntimeError, MeshError, SolverError) as exc:
        message = exc
    print(f"run aborted: {message}", file=sys.stderr)
    for d in created:
        try:
            d.rmdir()  # fails, and stops here, unless d is empty
        except OSError:
            break
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
