"""Command-line frontend: every analysis as a subcommand.

Results go to standard output as ``key = value`` lines, or as a single JSON
object under ``--json``. Validation problems and usage errors exit with
status 2 and a one-line reason on standard error; unexpected failures exit
with status 1, and output cut short by a reader closing the pipe with 141.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .discrimination import (
    assisted_alpha2_max,
    ensemble_discrimination_feasible,
    locc_ensemble_feasible,
    preserve_spectrum,
    three_state_feasible,
)
from .errors import ValidationError
from .spectra import DEFAULT_TOL, ProbVector, check_tol, entropy_bits
from .states import BellFamily, Ensemble, PureState, _amplitudes, check_family_priors, distinguishability_bound
from .sweep import DEFAULT_GRID_N, MAX_GRID_N, SWEEP_MODES, format_value, run_sweep, write_csv

# File-level normalization slack: looser than the in-memory tolerance, so
# hand-edited ensembles load (renormalized, with a warning).
FILE_NORM_TOL = 1e-6


def _parse_list(text: str | None, flag: str, kind=float) -> list | None:
    """Comma-separated values: an absent flag (None) is None, an empty text the empty list; an empty entry exits 2."""
    if text is None:
        return None
    parts = text.split(",") if text.strip() else []
    if not all(part.strip() for part in parts):
        raise ValidationError(f"{flag} has an empty entry in {text!r}")
    try:
        return [kind(part) for part in parts]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ValidationError(f"{flag} expects a comma-separated list of {what}, got {text!r}")


def _tolerance(text: str) -> float:
    """argparse type for --tol: a number that passes ``check_tol``."""
    try:
        return check_tol(float(text))
    except ValidationError:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}") from None


def _parse_target(text: str) -> tuple[float, ProbVector]:
    """Parse 'p:v1,v2,...' (weighted) or 'v1,v2,...' (weight 1)."""
    if ":" in text:
        head, _, tail = text.partition(":")
        try:
            weight = float(head)
        except ValueError:
            raise ValidationError(f"--target weight {head!r} is not a number")
        return weight, ProbVector(_parse_list(tail, "--target"))
    return 1.0, ProbVector(_parse_list(text, "--target"))


def load_ensemble_file(path: str) -> Ensemble:
    """Read an ensemble description from JSON.

    Accepts either {"family": {"a2": ..., "c2": ...}, "probs": [...]} or
    {"states": [{"amplitudes": [[re, im], ...], "dim_a": ..., "dim_b": ...}],
    "probs": [...]}. States off unit norm within FILE_NORM_TOL are
    renormalized, with one warning each once the whole file has validated.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read ensemble file: {exc}")
    except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError, or an int beyond the int-to-str digit limit
        raise ValidationError(f"ensemble file is not valid JSON: {exc}")
    except RecursionError:
        raise ValidationError("ensemble file nests too deeply to read") from None
    if not isinstance(data, dict):
        raise ValidationError("ensemble file must contain a JSON object")
    if ("family" in data) == ("states" in data):
        raise ValidationError("ensemble file must contain exactly one of 'family' or 'states'")
    probs = data.get("probs")

    if "family" in data:
        entry = data["family"]
        if not isinstance(entry, dict) or "a2" not in entry or "c2" not in entry:
            raise ValidationError("'family' must be an object with keys 'a2' and 'c2'")
        if not isinstance(probs, (list, type(None))):
            raise ValidationError("'probs' must be a list of numbers or null")
        return _family_ensemble(BellFamily.from_squared(entry["a2"], entry["c2"]), probs)

    raw_states = data["states"]
    if "probs" not in data:
        raise ValidationError("'states' ensembles require an explicit 'probs' list")
    if not (isinstance(raw_states, list) and isinstance(probs, list) and len(raw_states) == len(probs)):
        raise ValidationError("'states' and 'probs' must be lists of equal length")
    states, renormalized = [], []
    for idx, entry in enumerate(raw_states):
        try:
            dims = entry["dim_a"], entry["dim_b"]
            parts = [pair if isinstance(pair, list) else [pair, 0] for pair in entry["amplitudes"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"state {idx} is malformed: {exc}")
        k = next((k for k, part in enumerate(parts) if len(part) != 2 or list in map(type, part)), None)
        if k is not None:
            raise ValidationError(f"state {idx} amplitude {k} is not a number or an [re, im] pair")
        try:
            # A float view reads each judged [re, im] row as one complex with the file's bits (the norm divides them below).
            amps = np.ascontiguousarray(_amplitudes(parts).real).view(complex).ravel()
        except ValidationError as exc:
            raise ValidationError(f"state {idx}: {exc}") from None
        with np.errstate(over="ignore"):  # an overflowing norm is refused just below
            norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= FILE_NORM_TOL:
            raise ValidationError(f"state {idx} has norm {norm!r}, beyond the {FILE_NORM_TOL:.0e} load tolerance")
        if abs(norm - 1.0) > DEFAULT_TOL:
            renormalized.append(f"state {idx} renormalized on load (norm was {norm!r})")
        try:
            states.append(PureState(amps / norm, *dims))
        except ValidationError as exc:
            raise ValidationError(f"state {idx}: {exc}") from None
    ensemble = Ensemble(tuple(zip(probs, states)))
    for message in renormalized:
        warnings.warn(message, stacklevel=2)
    return ensemble


def _emit(result: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(result, allow_nan=False))
    else:
        for key, value in result.items():
            values = value if isinstance(value, (list, tuple)) else [value]
            print(f"{key} = {', '.join(map(format_value, values))}")


def _family_ensemble(family: BellFamily, probs) -> Ensemble:
    """The family's four members under ``probs`` (None: equal priors), for flags and family files alike."""
    return Ensemble(tuple(zip(check_family_priors(probs, 4), family.states())))


def _family_flags(args) -> tuple[BellFamily, list[float] | None, dict]:
    """--a2, --c2 and --probs as the family, its priors (None: the command's default) and the keys to echo."""
    if args.a2 is None or args.c2 is None:
        raise ValidationError("both --a2 and --c2 are required")
    return BellFamily.from_squared(args.a2, args.c2), _parse_list(args.probs, "--probs"), {"a2": args.a2, "c2": args.c2}


def _resolve_ensemble(args) -> tuple[Ensemble, dict]:
    """--ensemble FILE or the family flags as one Ensemble, and the keys to echo (none for a file)."""
    if args.ensemble is None:
        family, probs, echo = _family_flags(args)
        return _family_ensemble(family, probs), echo
    if args.a2 is not None or args.c2 is not None or args.probs is not None:
        raise ValidationError("--ensemble cannot be combined with --a2, --c2 or --probs")
    return load_ensemble_file(args.ensemble), {}


def _cmd_discriminate(args) -> dict:
    ensemble, echo = _resolve_ensemble(args)
    return {**echo, "feasible_unassisted": ensemble_discrimination_feasible(ensemble, args.tol)}


def _cmd_three_state(args) -> dict:
    family, probs, echo = _family_flags(args)
    which = _parse_list(args.which, "--which", int)
    return {**echo, "which": which, "feasible_unassisted": three_state_feasible(family, which, probs, tol=args.tol)}


def _cmd_assist_cost(args) -> dict:
    family, _, echo = _family_flags(args)
    report = assisted_alpha2_max(family)
    return {**echo, "feasible": report.feasible, "alpha2_max": report.alpha2_max,
            "assist_cost_ebits": report.cost_ebits, "first_sum_bound": report.first_sum_bound}


def _cmd_preserve_cost(args) -> dict:
    family, probs, echo = _family_flags(args)
    spectrum = preserve_spectrum(family, probs)
    return {**echo, "preserve_cost_ebits": entropy_bits(spectrum), "preserve_spectrum": spectrum.entries.tolist()}


def _cmd_bounds(args) -> dict:
    return asdict(distinguishability_bound(_resolve_ensemble(args)[0]))


def _cmd_convert(args) -> dict:
    source = ProbVector(_parse_list(args.source, "--source"))
    targets = [_parse_target(t) for t in args.target]
    return {"feasible": locc_ensemble_feasible(source, targets, tol=args.tol)}


def _cmd_sweep(args) -> None:
    probs, which = _parse_list(args.probs, "--probs"), _parse_list(args.which, "--which", int)
    records = run_sweep(args.mode, grid_n=args.grid_n, probs=probs, which=which)
    try:
        write_csv(records, sys.stdout if args.out is None else args.out)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ValidationError(f"cannot write CSV: {exc}")


# Every character str.splitlines() breaks at, mapped to its escape: messages
# can quote raw input (argparse's "unrecognized arguments" does), and a
# reason must stay on one line.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _error_line(message: str) -> str:
    return f"error: {message.translate(_LINE_BREAKS)}\n"


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line, ``error: <message>``, and exits 2."""

    def error(self, message):
        self.exit(2, _error_line(message))


# Each flag's argparse settings, declared once: its help must hold for every command that takes it.
_FLAGS = {
    "--json": dict(action="store_true", help="emit one JSON object instead of text"),
    "--tol": dict(type=_tolerance, default=DEFAULT_TOL, help="partial-sum comparison tolerance"),
    "--a2": dict(type=float, help="squared Schmidt parameter of the first pair, in [0.5, 1]"),
    "--c2": dict(type=float, help="squared Schmidt parameter of the second pair, in [0.5, 1]"),
    "--probs": dict(help="comma-separated priors (default: equal)"),
    "--ensemble": dict(metavar="FILE", help="JSON ensemble file instead of --a2, --c2 and --probs"),
    "--which": dict(default="0,1,2", help="three member indices, zero-based (default 0,1,2)"),
    "--source": dict(required=True, help="source spectrum, e.g. 0.5,0.5"),
    "--target": dict(action="append", required=True,
                     help="target spectrum 'v1,v2,...' or weighted 'p:v1,v2,...'; repeatable"),
    "--mode": dict(required=True, choices=SWEEP_MODES),
    "--grid-n": dict(type=int, default=DEFAULT_GRID_N,
                     help=f"lattice points per axis (default {DEFAULT_GRID_N}, at most {MAX_GRID_N})"),
    "--out": dict(metavar="FILE", help="write CSV here instead of standard output"),
}

# Per subcommand, in --help order: its handler, its flags (--tol only where a verdict is made) and its help line.
_COMMANDS = {
    "discriminate": (_cmd_discriminate, "--json --tol --a2 --c2 --probs --ensemble",
                     "perfect LOCC distinguishability of the four-state family or a JSON ensemble"),
    "three-state": (_cmd_three_state, "--json --tol --a2 --c2 --which --probs",
                    "distinguishability of a three-member subset"),
    "assist-cost": (_cmd_assist_cost, "--json --a2 --c2", "minimal pre-shared entanglement for perfect discrimination"),
    "preserve-cost": (_cmd_preserve_cost, "--json --a2 --c2 --probs",
                      "minimal entanglement for discrimination that preserves the states"),
    "bounds": (_cmd_bounds, "--json --a2 --c2 --probs --ensemble",
               "distinguishable-count bounds from three entanglement measures"),
    "convert": (_cmd_convert, "--json --tol --source --target",
                "LOCC convertibility between Schmidt spectra (deterministic or probabilistic)"),
    "sweep": (_cmd_sweep, "--mode --grid-n --probs --which --out", "grid scan over (a2, c2), emitted as CSV"),
}


def build_parser() -> argparse.ArgumentParser:
    description = "Majorization-based feasibility and entanglement costs of local state discrimination."
    parser = _Parser(prog="entdisc", description=description)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (handler, flags, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler, probs=None)  # commands without --probs read it as absent
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """``warnings.formatwarning`` while ``main`` runs: a warning prints as one ``warning:`` line."""
    return f"warning: {str(message).translate(_LINE_BREAKS)}\n"


@functools.cache
def _freeze_at_exit() -> None:
    """Once per process, freeze every tracked object at exit, so that the shutdown collections skip them.

    Most are the ~22 000 that importing numpy and this package leaves, and collecting them took longer than the
    command's own work. A caller running ``main`` in its own process keeps collecting as before.
    """
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
    args = build_parser().parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        result = args.handler(args)
        if result is not None:
            _emit(result, args.json)
        return 0
    except ValidationError as exc:
        sys.stderr.write(_error_line(str(exc)))
        return 2
    except KeyboardInterrupt:
        sys.stderr.write(_error_line("interrupted"))
        return 130
    except BrokenPipeError:
        # An early reader is no input error: exit as SIGPIPE would, with a quiet final flush to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
