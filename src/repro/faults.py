"""Deterministic, seeded fault injection for chaos testing.

Production code is sprinkled with **named fault sites** — one cheap call
at each place the system promises to survive a failure::

    from repro import faults
    ...
    faults.maybe("farm.worker", index=panel_idx)

With no fault spec armed (the production default) a site is a no-op:
``maybe`` reads one config attribute, sees an empty spec and returns.
Arming happens through ``Config.faults`` / ``$REPRO_FAULTS``, a compact
spec compiled once per distinct string::

    REPRO_FAULTS="farm.worker:kill@p3,serve.batch:raise@0.1"

Spec grammar
------------
::

    spec    := entry ("," entry)*
    entry   := site ":" action "@" trigger ["*" repeat]
    site    := dotted name ("farm.worker", "serve.batch", "ooc.stream", …)
    action  := "kill" | "raise" | "poison" | "truncate" | "slow"[seconds]
    trigger := "p" N        fire when the site's reported index equals N
             | "n" N        fire on the site's Nth evaluation (0-based)
             | float        fire per evaluation with this probability
             | "always"     fire on every evaluation
    repeat  := integer      maximum firings (default: 1 for p/n triggers,
                            unlimited for probability/"always")

``slow`` takes an optional duration suffix (``slow0.25`` = 250 ms,
default 50 ms).  Probability triggers draw from a per-rule
``random.Random`` seeded from ``(Config.seed, site, rule)`` — the same
spec under the same seed fires at the same evaluations every run, which
is what makes chaos tests reproducible.

Actions
-------
Two kinds of action exist, because not every site can act on itself:

* **generic** actions are executed by :func:`maybe` right at the site:
  ``raise`` raises :class:`~repro.errors.FaultInjected`, ``slow`` sleeps,
  ``kill`` hard-exits the *current* process (``os._exit``) — only ever
  use a ``kill`` rule on a site that runs in a disposable process;
* **site-interpreted** actions (``poison``, ``truncate`` — and ``kill``
  at sites that forward it, see below) are returned to the caller as a
  ``(action, seconds)`` token for the site to enact: the out-of-core
  stream ends early on ``truncate``, a farm worker corrupts its partial
  on ``poison``.

The farm's ``farm.worker`` site is special: the *parent* evaluates it
with :func:`probe` when staging a panel and ships the token to the
worker, which enacts it with :func:`perform` (dying, raising, sleeping
or poisoning in the worker process).  Evaluating in the parent keeps the
trigger state in a process that survives the fault — so ``kill@p3``
fires exactly once even though the killed worker is respawned and panel
3 is replayed, which is exactly the once-per-run semantics chaos tests
need.

Known sites
-----------
========================  ==================================================
``farm.worker``           per staged panel (``index`` = panel); enacted in
                          the worker: ``kill`` / ``raise`` / ``slow`` /
                          ``poison`` (NaN-corrupted partial)
``ooc.stream``            per streamed panel (``index`` = panel);
                          ``truncate`` ends the stream early (the executor
                          detects the short stream and raises)
``serve.batch``           per dispatched batch; ``raise`` fails the batch
``serve.engine``          per dispatched batch; ``slow`` delays the engine
                          call (drives deadline expiry)
``serve.conn``            per received wire-protocol frame (``index`` =
                          frames seen on the connection); evaluated with
                          :func:`probe` and enacted by the connection
                          handler, never by :func:`maybe` — ``kill`` in
                          a *server* process must drop the connection,
                          not the server: ``kill``/``raise``/``truncate``
                          abort the connection (half-open from the
                          client's view), and the handler settles every
                          request the dead connection had in flight
                          (they ledger as ``cancelled``, never leaking
                          admission slots); ``slow`` stalls the read loop
========================  ==================================================
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from .config import get_config
from .errors import ConfigurationError, FaultInjected

__all__ = ["maybe", "probe", "perform", "armed", "compile_spec", "reset",
           "FaultPlan", "FaultRule"]

#: token returned/consumed by probe()/perform(): ``(action, seconds)``
Token = Tuple[str, float]

_ACTIONS = ("kill", "raise", "poison", "truncate", "slow")
_DEFAULT_SLOW_SECONDS = 0.05


class FaultRule:
    """One compiled ``site:action@trigger[*repeat]`` entry (mutable: it
    tracks how often it has fired)."""

    def __init__(self, site: str, action: str, seconds: float,
                 trigger_kind: str, trigger_value: float,
                 repeat: Optional[int], seed: int, ordinal: int) -> None:
        self.site = site
        self.action = action
        self.seconds = seconds
        self.trigger_kind = trigger_kind    # "index" | "nth" | "prob" | "always"
        self.trigger_value = trigger_value
        self.repeat = repeat                # None = unlimited
        self.fired = 0
        self.evaluations = 0
        # deterministic per-rule stream: the same spec under the same
        # Config.seed fires at the same evaluations on every run
        self._rng = random.Random(f"{seed}|{site}|{ordinal}|{action}")

    def matches(self, index: Optional[int]) -> bool:
        """Evaluate the trigger once (advances evaluation/firing state)."""
        if self.repeat is not None and self.fired >= self.repeat:
            return False
        evaluation = self.evaluations
        self.evaluations += 1
        if self.trigger_kind == "index":
            hit = index is not None and index == int(self.trigger_value)
        elif self.trigger_kind == "nth":
            hit = evaluation == int(self.trigger_value)
        elif self.trigger_kind == "prob":
            hit = self._rng.random() < self.trigger_value
        else:  # "always"
            hit = True
        if hit:
            self.fired += 1
        return hit


class FaultPlan:
    """Every rule of one compiled spec, grouped by site.

    A plan is stateful (rules count their firings), shared across all
    sites of one process, and guarded by a lock because serving batches
    evaluate sites from executor threads.
    """

    def __init__(self, spec: str, rules: List[FaultRule]) -> None:
        self.spec = spec
        self._by_site: Dict[str, List[FaultRule]] = {}
        for rule in rules:
            self._by_site.setdefault(rule.site, []).append(rule)
        self._lock = threading.Lock()

    def fire(self, site: str, index: Optional[int]) -> Optional[Token]:
        rules = self._by_site.get(site)
        if not rules:
            return None
        with self._lock:
            for rule in rules:
                if rule.matches(index):
                    return (rule.action, rule.seconds)
        return None


def _parse_action(text: str, entry: str) -> Tuple[str, float]:
    for action in _ACTIONS:
        if text == action:
            return action, (_DEFAULT_SLOW_SECONDS if action == "slow" else 0.0)
        if action == "slow" and text.startswith("slow"):
            try:
                seconds = float(text[len("slow"):])
            except ValueError:
                break
            if seconds < 0:
                raise ConfigurationError(
                    f"fault entry {entry!r}: slow duration must be >= 0")
            return "slow", seconds
    raise ConfigurationError(
        f"fault entry {entry!r}: unknown action {text!r}; expected one of "
        f"{_ACTIONS} (slow takes an optional seconds suffix, e.g. slow0.25)")


def _parse_trigger(text: str, entry: str) -> Tuple[str, float, Optional[int]]:
    """Returns ``(kind, value, default_repeat)``."""
    if text == "always":
        return "always", 0.0, None
    if text[:1] in ("p", "n") and text[1:].isdigit():
        return ("index" if text[0] == "p" else "nth"), float(text[1:]), 1
    try:
        probability = float(text)
    except ValueError:
        raise ConfigurationError(
            f"fault entry {entry!r}: unknown trigger {text!r}; expected "
            "p<index>, n<count>, a probability in [0, 1], or 'always'"
        ) from None
    if not 0.0 <= probability <= 1.0:
        raise ConfigurationError(
            f"fault entry {entry!r}: probability must be in [0, 1], "
            f"got {probability}")
    return "prob", probability, None


def compile_spec(spec: str, seed: Optional[int] = None) -> FaultPlan:
    """Compile a fault spec string into a :class:`FaultPlan`.

    Raises :class:`~repro.errors.ConfigurationError` on grammar errors —
    ``Config.validate`` routes through here, so a bad ``REPRO_FAULTS``
    fails at configuration time, not at the first site evaluation.
    """
    if seed is None:
        seed = get_config().seed
    rules: List[FaultRule] = []
    for ordinal, entry in enumerate(part for part in spec.split(",") if part):
        entry = entry.strip()
        if ":" not in entry or "@" not in entry.split(":", 1)[1]:
            raise ConfigurationError(
                f"fault entry {entry!r} is malformed; expected "
                "site:action@trigger[*repeat]")
        site, rest = entry.split(":", 1)
        action_text, trigger_text = rest.split("@", 1)
        repeat: Optional[int]
        if "*" in trigger_text:
            trigger_text, repeat_text = trigger_text.split("*", 1)
            if not repeat_text.isdigit() or int(repeat_text) < 1:
                raise ConfigurationError(
                    f"fault entry {entry!r}: repeat must be a positive "
                    f"integer, got {repeat_text!r}")
            repeat = int(repeat_text)
        else:
            repeat = None
        site = site.strip()
        if not site:
            raise ConfigurationError(
                f"fault entry {entry!r}: empty site name")
        action, seconds = _parse_action(action_text.strip(), entry)
        kind, value, default_repeat = _parse_trigger(trigger_text.strip(),
                                                     entry)
        if repeat is None:
            repeat = default_repeat
        rules.append(FaultRule(site, action, seconds, kind, value, repeat,
                               seed, ordinal))
    return FaultPlan(spec, rules)


# one mutable plan per distinct spec string: trigger state (fired counts,
# RNG position) must persist across site evaluations, not per call
_PLANS: Dict[Tuple[str, int], FaultPlan] = {}
_PLANS_LOCK = threading.Lock()


def _active_plan() -> Optional[FaultPlan]:
    config = get_config()
    spec = getattr(config, "faults", "")
    if not spec:
        return None
    key = (spec, config.seed)
    plan = _PLANS.get(key)
    if plan is None:
        with _PLANS_LOCK:
            plan = _PLANS.get(key)
            if plan is None:
                plan = _PLANS[key] = compile_spec(spec, config.seed)
    return plan


def reset() -> None:
    """Forget every compiled plan's trigger state (fired counts, RNG
    positions).

    Plans are cached per ``(spec, seed)`` so state survives ``configured``
    excursions — arming, disarming and re-arming one spec is one
    continuous fault schedule, matching the one-spec-per-run production
    shape.  Tests that re-arm the same spec and expect its one-shot
    triggers fresh call this between scenarios (the test suite does so
    around every test).
    """
    with _PLANS_LOCK:
        _PLANS.clear()


def armed() -> bool:
    """Whether any fault spec is active (cheap enough to gate optional
    wrapping, e.g. the out-of-core stream decorator)."""
    return bool(getattr(get_config(), "faults", ""))


def probe(site: str, index: Optional[int] = None) -> Optional[Token]:
    """Evaluate ``site`` without acting: returns the fired ``(action,
    seconds)`` token, or ``None``.

    For sites whose fault is *enacted elsewhere* — the farm parent probes
    ``farm.worker`` while staging and ships the token to the worker, so
    the trigger state survives the worker it kills."""
    plan = _active_plan()
    if plan is None:
        return None
    return plan.fire(site, index)


def perform(token: Optional[Token]) -> Optional[str]:
    """Enact a token's generic action in the current process.

    ``raise`` raises :class:`FaultInjected`, ``slow`` sleeps, ``kill``
    hard-exits (``os._exit(70)`` — bypassing ``finally`` blocks exactly
    like the crashes it simulates).  Site-interpreted actions (and
    ``slow``, after sleeping) are returned by name for the call site.
    """
    if token is None:
        return None
    action, seconds = token
    if action == "raise":
        raise FaultInjected("injected fault: raise")
    if action == "kill":
        os._exit(70)
    if action == "slow":
        time.sleep(seconds)
    return action


def maybe(site: str, index: Optional[int] = None) -> Optional[str]:
    """The standard fault site: evaluate and enact in one call.

    A no-op returning ``None`` unless a spec is armed.  Returns the
    action name for site-interpreted actions (``poison``, ``truncate``)
    so the call site can enact them.
    """
    plan = _active_plan()
    if plan is None:
        return None
    return perform(plan.fire(site, index))
