"""Command-line front door.

Seven subcommands: build, analyze, locality, search, sweep, calibrate,
verify.  Human-readable summaries go to stdout; machine output is JSON
written with --out (CSV for the tabular sweep).  Every JSON record
embeds the tool version, the fully resolved parameters, the seed, and
the digest of the calibration constants in effect (null for commands
that use none), which is enough to reproduce the record byte for byte.

Exit status: 0 when every contract the command asserts held, 1 for a
computation that ran but failed a contract, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .calibration import (
    DEFAULT_CONSTANTS_PATH,
    calibrate_constants,
    load_constants,
    save_constants,
)
from .graphs import partition_torus
from .lattice import Lattice, _walked_lattice
from .locality import grid_localization, line_localization, subgrid_coverage
from .markov import export_triplets, lattice_walk, stationary
from .reporting import report_envelope, write_csv, write_report
from .search import SearchConfig, parse_marked_spec, run_k_sweep, run_search
from .spectral import analyze_instance, extended_hitting_time_limit
from .verify import SUITES, run_suite

__all__ = ["main"]


def parse_graph_spec(spec: str) -> Lattice:
    """'torus:N' or 'grid:N', N >= 2 -> the N x N lattice; nothing is built."""
    kind, sep, side_text = spec.partition(":")
    if not sep or kind not in ("torus", "grid") or not side_text.isdigit() or int(side_text) < 2:
        raise ValueError(f"malformed graph expression {spec!r}; expected torus:N or grid:N with N >= 2")
    side = int(side_text)
    return Lattice(kind, (side, side))


def _emit(out: str | None, envelope: dict) -> None:
    if out:
        path = write_report(out, envelope)
        print(f"wrote {path}")


# -- handlers ----------------------------------------------------------

def cmd_build(args: argparse.Namespace) -> int:
    """The lattice's moves as a directed edge list, four per vertex in move order, and its walk matrix."""
    lattice = parse_graph_spec(args.graph)
    P = lattice_walk(lattice.kind, lattice.shape)
    dst = lattice.neighbours()
    vertices = np.arange(P.dim)
    graph = {
        "kind": lattice.kind,
        "shape": list(lattice.shape),
        "n_vertices": P.dim,
        "coords": np.column_stack(np.divmod(vertices, lattice.shape[1])).tolist(),
        "edges": np.column_stack((np.repeat(vertices, 4), dst.ravel())).tolist(),
    }
    results: dict = {"graph": graph, "walk": {"dim": P.dim, "triplets": export_triplets(P)}}
    if args.partition is not None:
        if lattice.kind != "torus":
            raise ValueError("--partition applies to torus graphs only")
        results["partition"] = partition_torus(lattice.shape[0], args.partition).to_dict()
    params = {"graph": args.graph, "partition": args.partition}
    envelope = report_envelope("build", params, seed=None, constants_hash=None, results=results)
    loops = np.count_nonzero(dst == vertices[:, None])
    print(f"{lattice.kind} side={lattice.shape[0]}: {P.dim} vertices, {dst.size} directed edges, {loops} self loops")
    _emit(args.out, envelope)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """The time scales of one instance, on the thin lattice of its lines when the marked set is whole lines.

    The thin lattice keeps the longer axis, and with it the full
    lattice's gap; the report keeps the full lattice's N and marked ids.
    """
    lattice = parse_graph_spec(args.graph)
    side = lattice.shape[0]
    marked = parse_marked_spec(args.marked, side)
    shape, states = _walked_lattice(lattice.shape, marked)
    P = lattice_walk(lattice.kind, shape)
    pi = stationary(P)
    record = analyze_instance(P, states, pi).to_dict()
    record["eht_limit"] = extended_hitting_time_limit(P, states, pi, escape=record["escape"])
    record["gap"] = P.lattice.gap
    results = {"n": side, "N": side * side, "marked": list(marked), **record}
    params = {"graph": args.graph, "marked": args.marked}
    envelope = report_envelope("analyze", params, seed=None, constants_hash=None, results=results)
    print(f"{args.graph} marked={args.marked} ({len(marked)} vertices, eps={record['eps_marked']:.6g})")
    print(
        f"  ht={record['ht']:.6g}  ht_linear={record['ht_linear']:.6g}  "
        f"ht_eff={record['ht_eff']}  eht={record['eht']:.6g}  "
        f"eht_limit={record['eht_limit']:.6g}"
    )
    print(f"  escape={record['escape']:.6g}  gap={record['gap']:.6g}")
    _emit(args.out, envelope)
    return 0


def cmd_locality(args: argparse.Namespace) -> int:
    if args.experiment in ("line", "grid"):
        experiment = line_localization if args.experiment == "line" else grid_localization
        rep = experiment(args.T, args.trials, args.seed)
        print(
            f"{args.experiment} walk, T={args.T}, {args.trials} trials: "
            f"localized {rep.localized_fraction:.6f} (Wilson 99% low {rep.wilson_low:.6f})"
        )
        results = rep.to_dict()
    else:
        if args.n is None or args.marked is None:
            raise ValueError("subgrid experiment needs --n and --marked")
        marked = parse_marked_spec(args.marked, args.n)
        rep = subgrid_coverage(args.n, marked, args.T, args.trials, args.seed)
        print(
            f"subgrid coverage, n={args.n}, T={args.T}, d={rep.d}: "
            f"p_hat={rep.p_hat:.5f}  p_ml={rep.p_ml:.5f}  p_Gl={rep.p_Gl:.5f}  "
            f"p_G={rep.p_G:.5f} (exact)  sigma={rep.sigma:.2e}"
        )
        results = rep.to_dict()
    params = {
        "experiment": args.experiment, "T": args.T, "trials": args.trials,
        "n": args.n, "marked": args.marked,
    }
    envelope = report_envelope("locality", params, seed=args.seed, constants_hash=None, results=results)
    _emit(args.out, envelope)
    return 0


def _parse_k(text: str | None) -> tuple[bool, int | None]:
    if text is None:
        return False, None
    if text == "sweep":
        return True, None
    try:
        return False, int(text)
    except ValueError:
        raise ValueError(f"malformed --k value {text!r}; expected an integer or 'sweep'") from None


def cmd_search(args: argparse.Namespace) -> int:
    constants = load_constants(args.constants)
    sweep_k, k = _parse_k(args.k)
    config = SearchConfig(
        n=args.n, marked=parse_marked_spec(args.marked, args.n), constants=constants,
        k=k, seed=args.seed, sample=args.sample,
    )
    rep = run_k_sweep(config) if sweep_k else run_search(config)
    params = {
        "n": args.n, "marked": args.marked, "k": args.k,
        "sample": args.sample, "constants": str(args.constants),
    }
    results = rep.to_dict()
    envelope = report_envelope(
        "search", params, seed=args.seed, constants_hash=constants.digest, results=results
    )
    print(
        f"search n={args.n} marked={args.marked}: eps={rep.eps_marked:.6g}  "
        f"h_tilde={rep.h_tilde}  d={rep.layout.d}  blocks={rep.layout.n_blocks}  T_walk={rep.T_walk}"
    )
    if rep.mode == "sweep":
        print(f"  swept k={list(rep.k_values)}: combined success {results['sweep_success']:.6g}")
    else:
        print(f"  chosen k={rep.chosen_k}: success {rep.success_for_k(rep.chosen_k):.6g}")
    print(
        f"  best k={rep.best_k} (success {rep.best_success:.6g}); "
        f"ledger: {results['ledger']['setup_count']} setups, {rep.steps} steps"
    )
    if rep.sample_outcome is not None:
        print(f"  sampled: {rep.sample_outcome} -> {results['verdict']}")
    _emit(args.out, envelope)
    return 0


SWEEP_FIELDS = (
    "n", "N", "eps_marked", "h_tilde", "d", "base_side", "T_walk",
    "best_k", "best_success", "uniform_success", "steps",
)


def cmd_sweep(args: argparse.Namespace) -> int:
    constants = load_constants(args.constants)
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError:
        raise ValueError(f"malformed --sizes value {args.sizes!r}; expected e.g. 8,16,32") from None
    if not sizes:
        raise ValueError("need at least one size")
    rows = []
    for n, marked in [(n, parse_marked_spec(args.family, n)) for n in sizes]:
        rep = run_search(SearchConfig(n=n, marked=marked, constants=constants, seed=args.seed))
        rows.append(
            {
                "n": n, "N": n * n, "eps_marked": rep.eps_marked, "h_tilde": rep.h_tilde,
                "d": rep.layout.d, "base_side": rep.layout.base_side, "T_walk": rep.T_walk,
                "best_k": rep.best_k, "best_success": rep.best_success,
                "uniform_success": rep.uniform_success, "steps": rep.steps,
            }
        )
    header = "    ".join(SWEEP_FIELDS)
    print(f"family={args.family}")
    print(header)
    for row in rows:
        print("    ".join(f"{row[f]:.6g}" if isinstance(row[f], float) else str(row[f]) for f in SWEEP_FIELDS))
    if args.out:
        path = write_csv(args.out, rows, SWEEP_FIELDS)
        print(f"wrote {path}")
    if args.report:
        params = {"family": args.family, "sizes": sizes, "constants": str(args.constants)}
        envelope = report_envelope(
            "sweep", params, seed=args.seed, constants_hash=constants.digest, results=rows
        )
        write_report(args.report, envelope)
        print(f"wrote {args.report}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    constants = calibrate_constants()
    path = save_constants(constants, args.out)
    print(f"c_detect = {constants.c_detect}")
    print(f"c_find   = {constants.c_find}")
    print(f"c_bound  = {constants.c_bound}")
    print(f"digest {constants.digest} -> {path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    constants = load_constants(args.constants)
    sizes = (args.n,) if args.n is not None else None
    passed, results = run_suite(
        args.suite, constants, trials=args.trials, seed=args.seed,
        constants_path=str(Path(args.constants)), search_sizes=sizes,
    )
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    params = {
        "suite": args.suite, "trials": args.trials,
        "n": args.n, "constants": str(args.constants),
    }
    envelope = report_envelope(
        "verify", params, seed=args.seed, constants_hash=constants.digest,
        results=[r.to_dict() for r in results],
    )
    _emit(args.out, envelope)
    return 0 if passed else 1


# -- parser ------------------------------------------------------------

@functools.cache  # one parser per process: main runs many jobs in one interpreter
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklab",
        description="random-walk search laboratory: chains, spectra, locality, quantum search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a graph and dump its walk matrix")
    p.add_argument("--graph", required=True, help="torus:N or grid:N")
    p.add_argument("--partition", type=int, default=None, help="also emit the torus partition for this d")
    p.add_argument("--out", default=None, help="write the JSON record here")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="hitting/escape time panel for one instance")
    p.add_argument("--graph", required=True, help="torus:N or grid:N")
    p.add_argument("--marked", required=True, help="rows:a,b | cols:a,b | cells:(r,c);(r,c) | half | halfchecker | random:m:seed | singleton | row | clusters")
    p.add_argument("--out", default=None, help="write the JSON record here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("locality", help="Monte Carlo walk localization experiments")
    p.add_argument("--experiment", required=True, choices=("line", "grid", "subgrid"))
    p.add_argument("--T", required=True, type=int, help="number of walk steps")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--n", type=int, default=None, help="torus side (subgrid only)")
    p.add_argument("--marked", default=None, help="marked set (subgrid only)")
    p.add_argument("--out", default=None, help="write the JSON record here")
    p.set_defaults(func=cmd_locality)

    p = sub.add_parser("search", help="run the partitioned quantum search once")
    p.add_argument("--n", required=True, type=int, help="torus side")
    p.add_argument("--marked", required=True, help="marked-set expression or standard family name")
    p.add_argument("--k", default=None, help="guess exponent (integer), or 'sweep' for all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", action="store_true", help="also draw one measured vertex")
    p.add_argument("--constants", default=str(DEFAULT_CONSTANTS_PATH))
    p.add_argument("--out", default=None, help="write the JSON record here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="size sweep of the search over one marked family")
    p.add_argument("--family", required=True, help="singleton|row|clusters|half|halfchecker or a marked-set expression")
    p.add_argument("--sizes", required=True, help="comma-separated torus sides, e.g. 8,16,32")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--constants", default=str(DEFAULT_CONSTANTS_PATH))
    p.add_argument("--out", default=None, help="write the CSV table here")
    p.add_argument("--report", default=None, help="also write a JSON record here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help="run the calibration sweep and write the constants file")
    p.add_argument("--out", default=str(DEFAULT_CONSTANTS_PATH))
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("verify", help="run an acceptance suite")
    p.add_argument("suite", nargs="?", default="all", choices=sorted(SUITES))
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--n", type=int, default=None, help="restrict the search criteria to one torus side")
    p.add_argument("--constants", default=str(DEFAULT_CONSTANTS_PATH))
    p.add_argument("--out", default=None, help="write the JSON results here")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
