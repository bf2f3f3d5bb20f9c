"""Command-line entry point.

Settings resolve in order: the ExperimentConfig defaults, then the [popbo]
section of an INI config file (--config), then explicit flags.  POPBO_OUT
supplies the output directory when neither config nor flag names one.

Exit codes: 0 success, 1 I/O or run failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
from pathlib import Path

from .errors import DomainError, InputError, PopboError
from .harness import METHODS, ExperimentConfig, run_experiment

_CONFIG_SECTION = "popbo"


def _parse_seeds(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


# Every run setting, once: flag name (= config key) -> (ExperimentConfig
# field, converter from text, help).  Defaults live only in ExperimentConfig.
_SETTINGS = {
    "benchmark": ("benchmark", str, "benchmark name or tabular CSV path"),
    "method": ("method", str, f"one of {', '.join(METHODS)}"),
    "seeds": ("seeds", _parse_seeds, "comma-separated seed list"),
    "iters": ("n_iters", int, "optimization iterations"),
    "init": ("n_init", int, "initial design size (default per benchmark)"),
    "q": ("q", float, "rectification quantile (default per method)"),
    "kmax": ("k_max", int, "ERI worst tolerable rank"),
    "beta": ("beta", float, "LCB exploration weight"),
    "noise-sigma": ("noise_sigma", float, "observation noise stddev"),
    "out": ("out_dir", str, "output directory, else $POPBO_OUT"),
    "workers": ("workers", int, "parallel seed workers"),
}
_KIND = {str: "a string with '%' written '%%'", int: "an integer", float: "a number",
         _parse_seeds: "a comma-separated integer list"}


def _setting(key: str, raw: str, where: str, read=str) -> tuple:
    """(ExperimentConfig field, value) of a setting given as raw text.

    read interpolates the raw text first (config files); every failure is
    one usage error naming the setting and the raw text.
    """
    name, convert, _ = _SETTINGS[key]
    try:
        return name, convert(read(raw))
    except (ValueError, configparser.Error):
        raise InputError(f"{where} must be {_KIND[convert]}, got {raw!r}") from None


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
    for key in section:
        if key not in _SETTINGS:
            raise DomainError(f"unknown config key {key!r} in {path}")
    return dict(_setting(key, section.get(key, raw=True), f"config key {key!r} in {path}",
                         lambda _: section.get(key)) for key in section)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="popbo",
        description="Run ranking-surrogate Bayesian optimization on a benchmark "
                    "and write trace/summary CSVs.",
    )
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for key, (name, _, text) in _SETTINGS.items():
        default = defaults[name]
        shown = "required" if default is dataclasses.MISSING else f"default {default}"
        p.add_argument(f"--{key}", dest=key,
                       help=text if default is None else f"{text} ({shown})")
    p.add_argument("--config", help="INI file with a [popbo] section")
    return p


def main(argv=None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    config = flags.pop("config")
    try:
        fields = _load_config_file(config) if config is not None else {}
        fields.update(_setting(key, text, f"--{key}")
                      for key, text in flags.items() if text is not None)
        if "benchmark" not in fields or "method" not in fields:
            print("error: --benchmark and --method are required", file=sys.stderr)
            return 2
        if not fields.get("out_dir") and os.environ.get("POPBO_OUT"):
            fields["out_dir"] = os.environ["POPBO_OUT"]
        written = run_experiment(ExperimentConfig(**fields))
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
