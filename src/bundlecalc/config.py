"""CLI configuration: ambient constants, Jordan-mode defaults, caps and the
output format, loaded from a JSON file given by --config or the
BUNDLECALC_CONFIG environment variable.  Unknown keys are rejected."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .bounds import AmbientSpace, JordanMode
from .caps import CLOSURE_CAP, JORDAN_ORDER_CAP, Q_CAP
from .encoding import parse_integer, parse_rational
from .errors import DomainError

ENV_VAR = "BUNDLECALC_CONFIG"


@dataclass(frozen=True)
class Caps:
    q_max: int = Q_CAP
    closure: int = CLOSURE_CAP
    jordan_order: int = JORDAN_ORDER_CAP


@dataclass(frozen=True)
class Config:
    ambient: AmbientSpace = field(
        default_factory=lambda: AmbientSpace(dim=2, theta_top=1)
    )
    jordan: JordanMode = field(default_factory=JordanMode.schur)
    caps: Caps = field(default_factory=Caps)
    output: str = "json"


def _parse_ambient(obj) -> AmbientSpace:
    allowed = {"dim", "theta_top", "beta", "assume_beta_zero"}
    extra = set(obj) - allowed
    if extra:
        raise DomainError(f"unknown ambient keys: {sorted(extra)}", code="bad_config")
    beta = {}
    for rank, value in obj.get("beta", {}).items():
        beta[parse_integer(rank)] = parse_rational(value)
    flag = obj.get("assume_beta_zero", False)
    if not isinstance(flag, bool):
        raise DomainError("assume_beta_zero must be a boolean", code="bad_config")
    return AmbientSpace(
        dim=parse_integer(obj.get("dim", 2)),
        theta_top=parse_integer(obj.get("theta_top", 1)),
        beta=beta,
        assume_beta_zero=flag,
    )


def _parse_jordan(obj) -> JordanMode:
    allowed = {"mode", "a", "b", "value"}
    extra = set(obj) - allowed
    if extra:
        raise DomainError(f"unknown jordan keys: {sorted(extra)}", code="bad_config")
    kind = obj.get("mode", "schur")
    if kind == "schur":
        return JordanMode.schur()
    if kind == "weisfeiler":
        if "a" not in obj or "b" not in obj:
            raise DomainError("weisfeiler mode requires a and b", code="bad_config")
        return JordanMode.weisfeiler(parse_rational(obj["a"]), parse_rational(obj["b"]))
    if kind == "explicit":
        if "value" not in obj:
            raise DomainError("explicit mode requires a value", code="bad_config")
        return JordanMode.explicit(parse_integer(obj["value"]))
    raise DomainError(f"unknown jordan mode {kind!r}", code="bad_config")


def _parse_caps(obj) -> Caps:
    allowed = {"q_max", "closure", "jordan_order"}
    extra = set(obj) - allowed
    if extra:
        raise DomainError(f"unknown caps keys: {sorted(extra)}", code="bad_config")
    q_max = parse_integer(obj.get("q_max", Q_CAP))
    if q_max > Q_CAP:
        # make_field rejects q > Q_CAP itself: a configured cap can lower it, not raise it
        raise DomainError(f"q_max must be at most {Q_CAP}", code="bad_config")
    return Caps(
        q_max=q_max,
        closure=parse_integer(obj.get("closure", CLOSURE_CAP)),
        jordan_order=parse_integer(obj.get("jordan_order", JORDAN_ORDER_CAP)),
    )


def parse_config(obj) -> Config:
    if not isinstance(obj, dict):
        raise DomainError("config must be a JSON object", code="bad_config")
    allowed = {"ambient", "jordan", "caps", "output"}
    extra = set(obj) - allowed
    if extra:
        raise DomainError(f"unknown config keys: {sorted(extra)}", code="bad_config")
    output = obj.get("output", "json")
    if output not in ("json", "table"):
        raise DomainError("output must be 'json' or 'table'", code="bad_config")
    return Config(
        ambient=_parse_ambient(obj.get("ambient", {})),
        jordan=_parse_jordan(obj.get("jordan", {})),
        caps=_parse_caps(obj.get("caps", {})),
        output=output,
    )


def load_config(path: str | None) -> Config:
    """Load from an explicit path, the environment variable, or defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return Config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise DomainError(f"config file not found: {path}", code="bad_config") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"config file is not valid JSON: {exc}", code="bad_config") from exc
    return parse_config(data)
