"""Command-line interface.

Subcommands: compute, test, null, simulate, sweep, prewhiten, weights,
spectrum.  The four that draw random numbers (test, null, simulate, sweep)
take one --seed; when the flag is absent a seed is drawn from OS entropy and
printed on stderr so the run can be replayed.  Every output embeds the
package version, the configuration but --threads and the output paths (with
the seed of the four that draw) and SHA-256 hashes of all input files.  The
``test`` output's ``ci`` is ``[lower, upper]``, and its ``null`` holds the
asymptotic null's diagnostics, ``{}`` with ``--null mc``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from itertools import zip_longest

from . import __version__
from .depmodels import simulate_panel, theta_sweep
from .exceptions import DimensionMismatchError, LabelMismatchError, SbergsmaError
from .inference import (
    independence_rho_quantile,
    pairwise_screen,
    test_spatial_independence,
)
from .io import (
    atomic_write_text,
    load_panel,
    load_weights,
    save_acf_table,
    save_panel,
    save_samples,
    save_spectrum,
    save_sweep,
    save_weights,
)
from .nulldist import monte_carlo_null, nystrom_eigenvalues
from .reference import FAMILIES, ReferenceDistribution
from .rng import fresh_seed
from .statistic import sb_statistic
from .timeseries import acf, residual_panel
from .weights import linear_chain, row_standardize


def _dist_from_args(args) -> ReferenceDistribution:
    return ReferenceDistribution(args.dist, df=1.0 if args.df is None else args.df)


def _hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _check_labels(path: str, file_labels, panel_labels) -> None:
    """Raise LabelMismatchError at the first position where the labels differ."""
    for k, (got, want) in enumerate(zip_longest(file_labels, panel_labels), start=1):
        if got != want:
            raise LabelMismatchError(
                f"{path}: region {k} is {got!r}, the panel header has {want!r} there"
            )


def _resolve_weights(args, panel_labels=None):
    """Build W from --linear-chain or --weights/--weights-kind, then maybe standardize.

    A coordinate file's labels must be ``panel_labels``, in the same order.
    """
    if args.linear_chain is not None:
        W = linear_chain(args.linear_chain)
    else:
        W = load_weights(args.weights, args.weights_kind, n_regions=args.regions)
        if panel_labels is not None and args.weights_kind == "coords":
            _check_labels(args.weights, W.region_labels, panel_labels)
    if args.standardize:
        W = row_standardize(W)
    return W


def _panel_and_weights(args):
    """The panel and its W."""
    panel = load_panel(args.panel)
    return panel, _resolve_weights(args, panel.region_labels)


def _meta(args) -> dict:
    # no value depends on --threads or on where a file is written
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "input_hashes", "threads", "output", "acf_output") and v is not None
    }
    return {
        "version": __version__,
        "config": config,
        "input_hashes": args.input_hashes,
    }


def _seed(args) -> int:
    if args.seed is None:
        s = fresh_seed()
        print(f"seed: {s}", file=sys.stderr)
        args.seed = s
    return args.seed


def _emit_json(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if output:
        atomic_write_text(output, text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -----------------------------------------------------

def _cmd_compute(args):
    panel, W = _panel_and_weights(args)
    res = sb_statistic(panel, W)
    payload = {
        "meta": _meta(args),
        "value": res.value,
        "scaled_value": res.scaled_value,
        "s0": W.s0,
        "region_labels": list(panel.region_labels),
        "pair_rho": res.pair_rho.tolist(),
    }
    _emit_json(payload, args.output)


def _cmd_test(args):
    seed = _seed(args)
    panel, W = _panel_and_weights(args)
    report = test_spatial_independence(
        panel,
        W,
        null_method=args.null,
        null_dist=_dist_from_args(args),
        reps=args.reps,
        seed=seed,
        K=args.K,
        m=args.grid,
        ci_resamples=args.bootstrap,
        ci_level=args.level,
        n_jobs=args.threads,
    )
    # drawn last: the test checks its own size arguments before it simulates
    cutoff = args.cutoff
    if cutoff is None:
        cutoff = independence_rho_quantile(panel.n_time, seed=seed, n_sim=args.cutoff_sims,
                                           n_jobs=args.threads)
    flags = pairwise_screen(report.sb.pair_rho, cutoff)
    payload = {
        "meta": _meta(args),
        "sb": report.sb.value,
        "scaled_sb": report.sb.scaled_value,
        "p_value": report.p_value,
        "ci": list(report.ci) if report.ci else None,
        "null": report.null_meta,
        "pairwise_cutoff": cutoff,
        "pairwise_flags": flags.tolist(),
        "pair_rho": report.sb.pair_rho.tolist(),
        "notes": list(report.notes),
    }
    _emit_json(payload, args.output)


def _cmd_null(args):
    seed = _seed(args)
    W = _resolve_weights(args)
    if W.n_regions != args.R:
        raise DimensionMismatchError(f"W has {W.n_regions} regions, R = {args.R}")
    null = monte_carlo_null(
        _dist_from_args(args), args.T, W, reps=args.reps, seed=seed, n_jobs=args.threads,
    )
    save_samples(args.output, null.samples, meta=_meta(args))


def _cmd_simulate(args):
    seed = _seed(args)
    W = _resolve_weights(args)
    panel = simulate_panel(args.model.upper(), args.theta, W, args.T, seed=seed,
                           noise=_dist_from_args(args))
    save_panel(args.output, panel, meta=_meta(args))


def _cmd_sweep(args):
    seed = _seed(args)
    W = _resolve_weights(args)
    sweep = theta_sweep(
        args.model.upper(), W, args.thetas, args.T,
        reps=args.reps, seed=seed, noise=_dist_from_args(args), n_jobs=args.threads,
    )
    save_sweep(args.output, sweep, meta=_meta(args))


def _cmd_prewhiten(args):
    panel = load_panel(args.panel)
    resid = residual_panel(panel, args.ar)
    # both results exist before either file is written
    acfs = [acf(col, args.acf_lags) for col in resid.data.T] if args.acf_output else None
    save_panel(args.output, resid, meta=_meta(args))
    if args.acf_output:
        table = dict(zip(resid.region_labels, (vals for vals, _ in acfs)))
        save_acf_table(args.acf_output, table, acfs[0][1], meta=_meta(args))


def _cmd_weights(args):
    save_weights(args.output, _resolve_weights(args), meta=_meta(args))


def _cmd_spectrum(args):
    spectrum = nystrom_eigenvalues(_dist_from_args(args), K=args.K, m=args.grid)
    save_spectrum(args.output, spectrum.eigenvalues, meta=_meta(args))


# -- parser ------------------------------------------------------------------

def _add_dist_args(p):
    """Add --dist and --df: F is the standard member of a family (see ReferenceDistribution)."""
    p.add_argument("--dist", choices=FAMILIES, default="normal")
    p.add_argument("--df", type=float, help="chi-square degrees of freedom (default: 1)")


def _add_weight_args(p, standardize=True):
    """Add the W source (exactly one of --weights and --linear-chain) and its options."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--weights", help="path to a weight matrix file")
    source.add_argument("--linear-chain", type=int, metavar="R",
                        help="builtin linear chain of R regions")
    p.add_argument("--weights-kind", choices=("dense", "edges", "coords"),
                   help="format of the --weights file (default: dense)")
    p.add_argument("--regions", type=_positive_int, help="region count for edge-list input")
    std = p.add_mutually_exclusive_group()
    std.add_argument("--standardize", dest="standardize", action="store_true")
    std.add_argument("--no-standardize", dest="standardize", action="store_false")
    p.set_defaults(standardize=standardize)


def _add_seed(p):
    p.add_argument("--seed", type=_non_negative_int, default=None)


def _add_threads(p):
    p.add_argument("--threads", type=_positive_int, default=1)


def _add_output(p, required=True):
    p.add_argument("--output", "-o", type=_output_path, required=required,
                   help="output path" if required else "output path (default: stdout)")


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",")]


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def _non_negative_int(text: str) -> int:
    """argparse type: an integer of at least 0, such as a seed."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _output_path(path: str) -> str:
    """argparse type: a nonempty path in an existing directory, absent or a regular file."""
    if not path:
        raise argparse.ArgumentTypeError("must not be empty")
    # the atomic rename would replace a FIFO or device node, and fail on a directory
    if os.path.exists(path) and not os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"{path!r} exists and is not a regular file")
    # checked before any work, so a run cannot end in a write it can never make
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"the directory of {path!r} does not exist")
    return path


def _compute_args(p):
    p.add_argument("panel")
    _add_weight_args(p)
    _add_output(p, required=False)


def _test_args(p):
    p.add_argument("panel")
    _add_weight_args(p)
    _add_dist_args(p)
    p.add_argument("--null", choices=("mc", "asym"), default="mc")
    p.add_argument("--reps", type=int, default=10_000)
    # the defaults of the flags that one mode reads are in _DEPENDENT_FLAGS
    p.add_argument("--K", type=int,
                   help="--null asym finds min(K, 16) eigenvalues (default: 100)")
    p.add_argument("--grid", type=int, help="Nystrom grid of --null asym (default: 2000)")
    p.add_argument("--bootstrap", type=int, default=None,
                   help="bootstrap resamples for a CI (omit to skip)")
    p.add_argument("--level", type=_finite_float,
                   help="level of the --bootstrap CI (default: 0.95)")
    p.add_argument("--cutoff", type=_finite_float, default=None,
                   help="pairwise rho~ cutoff (default: simulated 95th percentile)")
    p.add_argument("--cutoff-sims", type=_positive_int,
                   help="simulations behind the default cutoff (default: 10000)")
    _add_seed(p)
    _add_threads(p)
    _add_output(p, required=False)


def _null_args(p):
    _add_weight_args(p)
    _add_dist_args(p)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--reps", type=int, default=10_000)
    _add_seed(p)
    _add_threads(p)
    _add_output(p)


def _simulate_args(p):
    p.add_argument("--model", choices=("sma", "sar"), required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--T", type=int, default=50)
    _add_weight_args(p)
    _add_dist_args(p)
    _add_seed(p)
    _add_output(p)


def _sweep_args(p):
    p.add_argument("--model", choices=("sma", "sar"), required=True)
    p.add_argument("--thetas", type=_float_list, default="0,0.1,0.25,0.5,0.75,0.9")
    p.add_argument("--T", type=int, default=50)
    p.add_argument("--reps", type=int, default=10_000)
    _add_weight_args(p)
    _add_dist_args(p)
    _add_seed(p)
    _add_threads(p)
    _add_output(p)


def _prewhiten_args(p):
    p.add_argument("panel")
    p.add_argument("--ar", type=_positive_int, default=3)
    p.add_argument("--acf-output", type=_output_path,
                   help="also write an ACF table CSV here")
    p.add_argument("--acf-lags", type=_non_negative_int,
                   help="lags of --acf-output (default: 10)")
    _add_output(p)


def _weights_args(p):
    _add_weight_args(p, standardize=False)
    _add_output(p)


def _spectrum_args(p):
    _add_dist_args(p)
    p.add_argument("--K", type=int, help="eigenvalues (default: 100)")
    p.add_argument("--grid", type=int, help="Nystrom grid (default: 2000)")
    _add_output(p)


#: each subcommand's handler, help line and the function that adds its arguments
_COMMANDS = {
    "compute": (_cmd_compute, "S~_B and the pairwise rho~ matrix", _compute_args),
    "test": (_cmd_test, "test spatial pairwise independence", _test_args),
    "null": (_cmd_null, "Monte Carlo null samples of T*S~_B", _null_args),
    "simulate": (_cmd_simulate, "simulate an SMA/SAR dependent panel", _simulate_args),
    "sweep": (_cmd_sweep, "S~_B moment summaries over a theta grid", _sweep_args),
    "prewhiten": (_cmd_prewhiten, "per-region AR(p) residual panel", _prewhiten_args),
    "weights": (_cmd_weights, "build and save a proximity matrix", _weights_args),
    "spectrum": (_cmd_spectrum, "Nystrom kernel eigenvalues for one F", _spectrum_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.  Its usage
    line names every subcommand either way, so ``command``'s help and errors
    read the same."""
    ap = argparse.ArgumentParser(
        prog="sbergsma",
        description="Spatial association testing with Bergsma's correlation",
    )
    ap.add_argument("--version", action="version", version=__version__)
    # the text argparse gives the choices when all are added
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (handler, help_text, add_args) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            p.set_defaults(func=handler)
    return ap


#: the flags read only with another flag, checked in this order on every
#: subcommand that has them: (flag, whether args read it, when, default)
_DEPENDENT_FLAGS = (
    # spectrum has no --null and always reads --K and --grid
    ("--K", lambda a: getattr(a, "null", "asym") == "asym", "with --null asym", 100),
    ("--grid", lambda a: getattr(a, "null", "asym") == "asym", "with --null asym", 2000),
    ("--df", lambda a: a.dist == "chi-square", "with --dist chi-square", 1.0),
    ("--level", lambda a: a.bootstrap is not None, "with --bootstrap", 0.95),
    ("--cutoff-sims", lambda a: a.cutoff is None, "without --cutoff", 10_000),
    ("--regions", lambda a: a.weights is not None and a.weights_kind == "edges",
     "with --weights-kind edges", None),
    ("--weights-kind", lambda a: a.weights is not None, "with --weights", "dense"),
    ("--acf-lags", lambda a: a.acf_output is not None, "with --acf-output", 10),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call reads one subcommand's arguments; any argv that does not start
    # with a subcommand's name (none, --version, -h, an unknown word) gets all
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    for flag, reads, when, default in _DEPENDENT_FLAGS:
        dest = flag[2:].replace("-", "_")
        if not hasattr(args, dest):
            continue
        if not reads(args) and getattr(args, dest) is not None:
            parser.error(f"argument {flag}: only read {when}")
        if reads(args) and getattr(args, dest) is None:
            setattr(args, dest, default)
    # an output must replace neither an input nor the run's other output
    paths, inputs = {}, []
    for name in ("panel", "--weights", "--output", "--acf-output"):
        path = getattr(args, name.lstrip("-").replace("-", "_"), None)
        if path is not None:
            real = os.path.realpath(path)
            if name in ("panel", "--weights"):
                inputs.append(path)
            elif real in paths:
                parser.error(f"argument {name}: {path!r} is also the {paths[real]} path")
            paths.setdefault(real, name)
    try:
        # each input hashed once, for the meta of every output
        args.input_hashes = {path: _hash_file(path) for path in inputs}
        args.func(args)
    except (SbergsmaError, OSError) as err:
        category = "FileNotFound" if isinstance(err, FileNotFoundError) else type(err).__name__
        print(json.dumps({"error_category": category, "message": str(err)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
