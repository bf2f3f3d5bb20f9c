"""Command-line entry point.

Settings resolve in order: built-in defaults, then the [popbo] section of an
INI config file (--config), then explicit flags.  POPBO_OUT supplies the
default output directory when neither config nor flag names one.

Exit codes: 0 success, 1 I/O or run failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from pathlib import Path

from .errors import DomainError, InputError, PopboError
from .harness import METHODS, ExperimentConfig, run_experiment

_CONFIG_SECTION = "popbo"
_STR_KEYS = ("benchmark", "method", "seeds", "out")
_INT_KEYS = ("iters", "init", "kmax", "workers")
_FLOAT_KEYS = ("q", "beta", "noise-sigma")


def _parse_seeds(text: str) -> tuple:
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip() != "")
    except ValueError:
        raise DomainError(f"seeds must be a comma-separated integer list, got {text!r}") from None


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise InputError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise OSError(f"cannot read config file {path}")
    if not parser.has_section(_CONFIG_SECTION):
        raise DomainError(f"config file {path} has no [{_CONFIG_SECTION}] section")
    section = parser[_CONFIG_SECTION]
    out: dict = {}
    for key in section:
        if key in _STR_KEYS:
            convert, kind = section.get, "a string with '%' written '%%'"
        elif key in _INT_KEYS:
            convert, kind = section.getint, "an integer"
        elif key in _FLOAT_KEYS:
            convert, kind = section.getfloat, "a number"
        else:
            raise DomainError(f"unknown config key {key!r} in {path}")
        try:
            out[key] = convert(key)
        except (ValueError, configparser.Error):
            value = section.get(key, raw=True)
            raise InputError(f"config key {key!r} in {path} must be {kind}, "
                             f"got {value!r}") from None
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="popbo",
        description="Run ranking-surrogate Bayesian optimization on a benchmark "
                    "and write trace/summary CSVs.",
    )
    p.add_argument("--benchmark", help="benchmark name or tabular CSV path")
    p.add_argument("--method", help=f"one of {', '.join(METHODS)}")
    p.add_argument("--seeds", help="comma-separated seed list (default 0)")
    p.add_argument("--iters", type=int, help="optimization iterations (default 80)")
    p.add_argument("--init", type=int, help="initial design size (default 12; 30 for rosenbrock6)")
    p.add_argument("--q", type=float, help="rectification quantile (default 0.6 r-lcb / 0.4 eri)")
    p.add_argument("--kmax", type=int, help="ERI worst tolerable rank (default 5)")
    p.add_argument("--beta", type=float, help="LCB exploration weight (default 1.0)")
    p.add_argument("--noise-sigma", type=float, help="observation noise stddev (default 0)")
    p.add_argument("--out", help="output directory (default $POPBO_OUT or .)")
    p.add_argument("--workers", type=int, help="parallel seed workers (default 1)")
    p.add_argument("--config", help="INI file with a [popbo] section")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    settings = {
        "seeds": "0", "iters": 80, "init": None, "q": None, "kmax": 5,
        "beta": 1.0, "noise-sigma": 0.0, "out": None, "workers": 1,
        "benchmark": None, "method": None,
    }
    try:
        if args.config is not None:
            settings.update(_load_config_file(args.config))
        for key, flag in [("benchmark", args.benchmark), ("method", args.method),
                          ("seeds", args.seeds), ("iters", args.iters),
                          ("init", args.init), ("q", args.q), ("kmax", args.kmax),
                          ("beta", args.beta), ("noise-sigma", args.noise_sigma),
                          ("out", args.out), ("workers", args.workers)]:
            if flag is not None:
                settings[key] = flag

        if settings["benchmark"] is None or settings["method"] is None:
            print("error: --benchmark and --method are required", file=sys.stderr)
            return 2
        out_dir = settings["out"] or os.environ.get("POPBO_OUT") or "."
        cfg = ExperimentConfig(
            benchmark=str(settings["benchmark"]),
            method=str(settings["method"]),
            seeds=_parse_seeds(settings["seeds"]),
            n_init=settings["init"],
            n_iters=int(settings["iters"]),
            noise_sigma=float(settings["noise-sigma"]),
            q=settings["q"],
            k_max=int(settings["kmax"]),
            beta=float(settings["beta"]),
            out_dir=str(out_dir),
            workers=int(settings["workers"]),
        )
        written = run_experiment(cfg)
    except (DomainError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, PopboError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for path in written:
        print(Path(path).as_posix())
    return 0


if __name__ == "__main__":
    sys.exit(main())
