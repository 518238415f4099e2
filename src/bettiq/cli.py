"""Command-line experiment harness.

Subcommands: generate | exact | estimate | resources | complement.
JSON in, JSON/CSV out; every emitted report echoes its full configuration and
master seed so any stochastic field can be reproduced bit-identically.
Exit codes: 0 success, 2 invalid configuration, 3 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import nullcontext
from functools import cache
from math import comb

import numpy as np

from . import __version__
from .complexes import (
    GENERATOR_MODELS,
    InstanceSpec,
    _check_dimension,
    dump_instance,
    generate_instance,
    instance_to_dict,
    load_instance,
)
from .extraction import (
    ObservablePair,
    ResourceReport,
    SingularSystemError,
    complement_report,
    estimate_betti,
    estimate_normalized_betti,
    pipeline_context,
    resource_estimate,
)
from .homology import spectral_summary
from .pipeline import BlockEncodingError, PEConfig

TRIAL_CSV_COLUMNS = [
    "trial",
    "seed_entropy",
    "beta_estimate",
    "beta_rounded",
    "p1",
    "normalized_betti",
    "samples",
    "delta",
]

_PE_HELP = "'ideal', 'bits' (register sized automatically) or 'bits:<t>'"

RESOURCE_CSV_COLUMNS = [*ResourceReport.__dataclass_fields__, "valid", "error"]


def _parse_pe(text: str) -> PEConfig:
    if text == "ideal":
        return PEConfig.ideal()
    if text.startswith("bits:"):
        return PEConfig.bits(t=int(text.split(":", 1)[1]))
    if text == "bits":
        return PEConfig.bits()
    raise ValueError(f"--pe must be 'ideal', 'bits' or 'bits:<t>', got {text!r}")


def _parse_pair(text: str) -> ObservablePair:
    if text == "default":
        return ObservablePair.default()
    if text.startswith("custom:"):
        with open(text.split(":", 1)[1]) as fh:
            data = json.load(fh)
        return ObservablePair(np.asarray(data["m1"], dtype=float),
                              np.asarray(data["m2"], dtype=float))
    raise ValueError(f"--pair must be 'default' or 'custom:<file>', got {text!r}")


def _parse_grid(text: str) -> list[int]:
    if ".." in text:
        lo, hi = (int(part) for part in text.split("..", 1))
        if hi < lo:
            raise ValueError(f"empty range {text!r}: lo..hi needs lo <= hi")
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True)  # one line: the C encoder, which indent bypasses
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _config(args, **overrides) -> dict:
    """The report's echo of every parsed option but the handler and --out."""
    return {**{key: value for key, value in vars(args).items() if key not in ("func", "out")},
            **overrides}


def _emit_report(config: dict, results, start: float, out: str | None) -> None:
    """Write the report envelope every analysis command emits; its timing runs
    from `start` to this call, after the results are computed."""
    _emit_json({
        "config": config,
        "results": results,
        "timing_seconds": time.perf_counter() - start,
        "versions": {"bettiq": __version__, "numpy": np.__version__},
    }, out)


def _emit_csv(rows: list[dict], columns: list[str], out: str | None) -> None:
    with open(out, "w", newline="") if out else nullcontext(sys.stdout) as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    params = {name: getattr(args, name) for name in ("n", "p", "inner", "outer", "length_scale")
              if getattr(args, name) is not None}
    spec = InstanceSpec(args.model, params, args.seed)
    instance = generate_instance(spec)
    if args.out:
        dump_instance(instance, args.out, spec)
    else:
        print(json.dumps(instance_to_dict(instance, spec), indent=2, sort_keys=True))
    return 0


def _cmd_exact(args) -> int:
    instance = load_instance(args.instance)
    start = time.perf_counter()
    ctx = pipeline_context(instance, args.k, convention=args.convention)
    if ctx.s_count == 0:
        raise ValueError(f"instance has no simplices at dimension k={args.k}")
    summary = spectral_summary(ctx.op)  # kernel_dim from the operator's rank counts
    results = {
        "beta": ctx.op.kernel_dims[0],
        "s_count": ctx.s_count,
        "slot_count": ctx.slot_count,
        "kappa_laplacian": summary.kappa,
        "kernel_dim": summary.kernel_dim,
        "threshold_agrees": summary.threshold_agrees,
    }
    _emit_report(_config(args), results, start, args.out)
    return 0


def _cmd_estimate(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    instance = load_instance(args.instance)
    pe = _parse_pe(args.pe)
    pair = _parse_pair(args.pair)
    master = np.random.SeedSequence(args.seed)
    config = _config(args, seed=master.entropy)

    def run_one(seed):
        if args.normalized:
            return estimate_normalized_betti(
                instance, args.k, args.delta, pair=pair, convention=args.convention,
                pe=pe, mode=args.mode, confidence=args.confidence, seed=seed)
        return estimate_betti(
            instance, args.k, args.eps, pair=pair, convention=args.convention,
            pe=pe, mode=args.mode, confidence=args.confidence, seed=seed)

    start = time.perf_counter()
    instance_desc = instance_to_dict(instance)
    if args.trials == 1:
        _emit_report(config, run_one(master).to_dict(instance=instance_desc), start, args.out)
        return 0

    children = [np.random.SeedSequence(entropy=master.entropy, spawn_key=(i,))
                for i in range(args.trials)]
    results = [run_one(child) for child in children]
    _emit_report(config, {"trials": [res.to_dict(instance=instance_desc) for res in results]},
                 start, args.out)
    if args.out:
        rows = [{**res.to_dict(), "trial": i, "seed_entropy": child.entropy}
                for i, (res, child) in enumerate(zip(results, children))]
        _emit_csv(rows, TRIAL_CSV_COLUMNS, f"{os.path.splitext(args.out)[0]}.trials.csv")
    return 0


def _cmd_resources(args) -> int:
    rows = []
    for n in _parse_grid(args.n):
        for k in _parse_grid(args.k):
            row = {"n": n, "k": k, "kappa": args.kappa, "beta": args.beta,
                   "eps": args.eps, "delta": args.delta, "valid": True, "error": ""}
            try:
                _check_dimension(k, n)  # before comb, which rejects a negative n in its own words
                s_count = comb(n, k + 1) if args.s_k == "dense" else int(args.s_k)
                report = resource_estimate(n, k, args.kappa, args.beta, s_count,
                                           eps=args.eps, delta=args.delta,
                                           confidence=args.confidence)
                row.update(report.to_dict())
            except ValueError as exc:
                row.update({"valid": False, "error": str(exc)})
            rows.append(row)
    _emit_csv(rows, RESOURCE_CSV_COLUMNS, args.out)
    return 0


def _cmd_complement(args) -> int:
    instance = load_instance(args.instance)
    pe = _parse_pe(args.pe)
    start = time.perf_counter()
    _emit_report(_config(args), complement_report(instance, args.k, pe=pe), start, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bettiq",
                                     description="Betti numbers of clique complexes: "
                                                 "exact oracle and simulated pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded instance file")
    gen.add_argument("--model", required=True, choices=GENERATOR_MODELS)
    gen.add_argument("--n", type=int)
    gen.add_argument("--p", type=float, help="edge probability (erdos-renyi)")
    gen.add_argument("--inner", type=float, help="inner radius (annulus-cloud)")
    gen.add_argument("--outer", type=float, help="outer radius (annulus-cloud)")
    gen.add_argument("--length-scale", type=float, dest="length_scale")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_generate)

    exact = sub.add_parser("exact", help="exact Betti number, spectrum, and threshold check")
    exact.add_argument("--instance", required=True)
    exact.add_argument("--k", type=int, required=True)
    exact.add_argument("--convention", choices=["restricted", "dual"], default="restricted")
    exact.add_argument("--out")
    exact.set_defaults(func=_cmd_exact)

    est = sub.add_parser("estimate", help="run the estimation pipeline")
    est.add_argument("--instance", required=True)
    est.add_argument("--k", type=int, required=True)
    est.add_argument("--eps", type=float, help="multiplicative accuracy target")
    est.add_argument("--delta", type=float, help="additive accuracy (normalized mode)")
    est.add_argument("--normalized", action="store_true")
    est.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    est.add_argument("--convention", choices=["restricted", "dual"], default="restricted")
    est.add_argument("--pe", default="ideal", help=_PE_HELP)
    est.add_argument("--pair", default="default", help="'default' or 'custom:<json file>'")
    est.add_argument("--confidence", type=float, default=0.95)
    est.add_argument("--seed", type=int)
    est.add_argument("--trials", type=int, default=1)
    est.add_argument("--out")
    est.set_defaults(func=_cmd_estimate)

    res = sub.add_parser("resources", help="evaluate the cost formulas over a grid")
    res.add_argument("--n", required=True, help="int, comma list, or lo..hi")
    res.add_argument("--k", required=True, help="int, comma list, or lo..hi")
    res.add_argument("--kappa", type=float, required=True)
    res.add_argument("--beta", type=float, required=True)
    res.add_argument("--s-k", dest="s_k", default="dense",
                     help="simplex count, or 'dense' for the full slot count")
    res.add_argument("--eps", type=float)
    res.add_argument("--delta", type=float)
    res.add_argument("--confidence", type=float, default=0.95)
    res.add_argument("--out")
    res.set_defaults(func=_cmd_resources)

    comp = sub.add_parser("complement", help="three-way complement comparison")
    comp.add_argument("--instance", required=True)
    comp.add_argument("--k", type=int, required=True)
    comp.add_argument("--pe", default="ideal", help=_PE_HELP)
    comp.add_argument("--out")
    comp.set_defaults(func=_cmd_complement)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (SingularSystemError, BlockEncodingError, np.linalg.LinAlgError, ArithmeticError,
            MemoryError) as exc:
        what = "out of memory" if isinstance(exc, MemoryError) else "numerical failure"
        print(f"error: {what}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
