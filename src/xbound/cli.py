"""Command-line interface.

Exit codes are a stable contract:
  0  entanglement certified (bound > 0)
  1  inconclusive (bound == 0)
  2  input error (malformed file, bad flags, wrong dimensions)
  3  invariant violation (a bug: a fuzz counterexample, or a bound above exact)
"""
from __future__ import annotations

import argparse
import functools
import sys

from .errors import InvariantViolation, OutOfRange, StateValidationError
from .highdim import _check_below_exact, generalized_lower_bound
from .io import (
    hash_file,
    hash_text,
    load_density,
    make_manifest,
    save_unitaries,
    write_manifest,
)
from .linalg import DEFAULT_TOL, Tolerances
from .oracle import OptimizerConfig, fuzz_inequality, optimize_basis
from .reference_states import (
    IsotropicState,
    isotropic_bound_closed_form,
    isotropic_exact_concurrence,
    isotropic_matrix,
)
from .two_qubit import certify_from_elements, wootters_concurrence


def _tolerances(args) -> Tolerances:
    return Tolerances.uniform(args.tol) if args.tol is not None else DEFAULT_TOL


def cmd_bound(args) -> int:
    q = load_density(args.input, _tolerances(args))
    if args.dims is not None and args.dims != (q.dimA, q.dimB):
        raise StateValidationError(
            f"--dims {args.dims[0]},{args.dims[1]} does not match "
            f"file dims ({q.dimA},{q.dimB})"
        )
    rep = generalized_lower_bound(q)
    p = rep.argmax_pair
    line = f"bound={rep.bound:.6f}"
    if (q.dimA, q.dimB) == (2, 2):
        exact = wootters_concurrence(q)
        _check_below_exact(rep.bound, exact)
        line += f" exact={exact:.6f}"
    line += f" pair=({p.i},{p.j},{p.k},{p.l}) mirrored={str(rep.mirrored).lower()}"
    print(line)
    print("verdict=" + ("entangled" if rep.bound > 0 else "inconclusive"))
    return 0 if rep.bound > 0 else 1


def cmd_certify(args) -> int:
    rep = certify_from_elements(args.q14, args.d22, args.d33)
    if rep.entangled:
        print(f"entangled, C1={rep.c1:.6g}")
        return 0
    print(f"inconclusive, C1={rep.c1:.6g}")
    return 1


def cmd_isotropic_sweep(args) -> int:
    if args.d < 2:
        raise StateValidationError(f"--d must be >= 2, got {args.d}")
    if args.steps < 2:
        raise StateValidationError(f"--steps must be >= 2, got {args.steps}")
    tol = _tolerances(args)
    rows = ["F,exact,bound,bound_from_matrix"]
    for n in range(args.steps):
        f = n / (args.steps - 1)
        s = IsotropicState(d=args.d, F=f)
        exact = isotropic_exact_concurrence(s)
        bound = isotropic_bound_closed_form(s)
        from_matrix = float(generalized_lower_bound(isotropic_matrix(s)).bound)
        # repr round-trips exactly; consumers compare against closed forms
        # at tolerances tighter than fixed-width formatting would survive.
        rows.append(f"{f!r},{exact!r},{bound!r},{from_matrix!r}")
    csv_text = "\n".join(rows) + "\n"
    with open(args.out, "w") as fh:
        fh.write(csv_text)
    manifest = make_manifest(
        command=f"isotropic-sweep --d {args.d} --steps {args.steps}",
        input_hash=hash_text(csv_text),
        seed=args.seed,
        tol=tol,
    )
    write_manifest(manifest, args.out)
    print(f"wrote {args.out} ({args.steps} rows)")
    return 0


def cmd_fuzz(args) -> int:
    if args.trials < 1:
        raise StateValidationError(f"--trials must be >= 1, got {args.trials}")
    dims = tuple(args.dims)
    if min(dims) < 2:
        raise StateValidationError(f"--dims must both be >= 2, got {dims[0]},{dims[1]}")
    report = fuzz_inequality(args.trials, dims, args.seed)
    print(report.to_json())
    if report.violations:
        return 3
    return 0


def cmd_optimize_basis(args) -> int:
    if args.restarts < 1:
        raise StateValidationError(f"--restarts must be >= 1, got {args.restarts}")
    q = load_density(args.input, _tolerances(args))
    if (q.dimA, q.dimB) != (2, 2):
        raise StateValidationError(
            f"optimize-basis needs a two-qubit state, got dims ({q.dimA},{q.dimB})"
        )
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    res = optimize_basis(q, cfg)
    print(f"original_bound={res.original_bound:.9f}")
    print(f"optimized_bound={res.best_bound:.9f}")
    print(f"exact={res.exact:.9f}")
    print(f"gap={res.exact - res.best_bound:.3e}")
    save_unitaries(res.uA, res.uB, args.out)
    manifest = make_manifest(
        command=f"optimize-basis --restarts {args.restarts}",
        input_hash=hash_file(args.input),
        seed=args.seed,
        tol=_tolerances(args),
    )
    write_manifest(manifest, args.out)
    print(f"wrote {args.out}")
    return 0


def _dims(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("dims must look like A,B (e.g. 2,2)")
    return int(parts[0]), int(parts[1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xbound",
        description="Algebraic lower bound on concurrence from X-matrix elements.",
    )
    parser.add_argument("--tol", type=float, default=None,
                        help="override all validation tolerances with one value")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed, >= 0 (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="lower bound of a density matrix read from file")
    p.add_argument("input", help="density-matrix JSON file")
    p.add_argument("--dims", type=_dims, default=None,
                   help="expected A,B dimensions (checked against the file)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("certify", help="certificate from the three measured elements")
    p.add_argument("--q14", type=float, required=True, help="|Q14| magnitude")
    p.add_argument("--d22", type=float, required=True, help="diagonal element Q22")
    p.add_argument("--d33", type=float, required=True, help="diagonal element Q33")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("isotropic-sweep",
                       help="CSV of exact vs bound across the isotropic family")
    p.add_argument("--d", type=int, required=True, help="local dimension")
    p.add_argument("--steps", type=int, default=101, help="grid size over F in [0,1]")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_isotropic_sweep)

    p = sub.add_parser("fuzz", help="randomized sweep of the main inequality")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--dims", type=_dims, default=(2, 2))
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("optimize-basis",
                       help="search local unitaries maximizing the bound")
    p.add_argument("input", help="two-qubit density-matrix JSON file")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--out", default="basis_unitaries.json",
                   help="where to write the optimal uA, uB")
    p.set_defaults(func=cmd_optimize_basis)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args fills a fresh namespace from the
    # defaults on every call, so nothing carries over between calls.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise OutOfRange(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except StateValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large to hold
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
