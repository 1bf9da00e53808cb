"""Spans around permatch's layers, taken from outside the package.

Each public function on the Monte Carlo and match paths is wrapped where
its calling module looks it up (``permatch.harness.separation``,
``permatch.estimators.solve_hungarian``, ...), so nothing under ``src/``
changes.  Spans nest on one stack: a span's self time is its duration
minus the time of the spans it caused, and a layer's self time is the sum
over its span keys.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module that looks the name up, attribute, span key "<layer>.<what>")
PATCHES = (
    ("permatch.harness", "run_experiment", "harness.run"),
    ("permatch.harness", "aggregate", "harness.aggregate"),
    ("permatch.harness", "emit", "harness.emit"),
    ("permatch.harness", "estimate", "estimators.estimate"),
    ("permatch.cli", "estimate", "estimators.estimate"),
    ("permatch.harness", "separation", "metrics.separation"),
    ("permatch.harness", "loss_01", "metrics.loss"),
    ("permatch.harness", "loss_hamming", "metrics.loss"),
    ("permatch.model", "uniform_box_features", "model.build"),
    ("permatch.model", "random_permutation", "model.draw"),
    ("permatch.model", "generate_instance", "model.draw"),
    ("permatch.model", "load_instance_csv", "model.read_csv"),
    ("permatch.estimators", "cost_lss", "estimators.cost"),
    ("permatch.estimators", "cost_lsns", "estimators.cost"),
    ("permatch.estimators", "cost_lsl", "estimators.cost"),
    ("permatch.estimators", "estimate_greedy", "estimators.greedy"),
    ("permatch.estimators", "solve_hungarian", "assignment.solve"),
)

LAYERS = ("model", "metrics", "estimators", "assignment", "harness", "cli")


class Tracer:
    """Collects span self times and call counts while installed.

    With ``capture`` set it also keeps what the checks need: every
    (instance, estimator, result) passing through ``estimate`` and every
    cost matrix handed to the solver.
    """

    def __init__(self, capture: bool = False):
        self.capture = capture
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.solve_call_s: list[float] = []
        self.cost_flops = 0
        self.estimates: list[tuple] = []  # (instance, kind tag, permutation)
        self.solves: list = []  # cost matrix entries
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time of each open span
        self._saved: list[tuple] = []

    def span(self, key: str, fn):
        """Wrap ``fn`` so that each call records one span under ``key``."""

        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._stack.pop()
                self.self_s[key] += elapsed - child
                self.calls[key] += 1
                if self._stack:
                    self._stack[-1] += elapsed
            self._observe(key, args, result, elapsed)
            return result

        return wrapper

    def _observe(self, key, args, result, elapsed):
        if key == "estimators.cost":
            instance = args[0]
            self.cost_flops += 3 * instance.second.n * instance.first.n * instance.first.d
        elif key == "assignment.solve":
            self.solve_call_s.append(elapsed)
            if self.capture:
                self.solves.append(args[0].entries)
        elif key == "estimators.estimate" and self.capture:
            self.estimates.append((args[0], args[1].tag, result))

    def install(self) -> None:
        for module_name, attr, key in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(key, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def key_ms(self, key: str) -> float:
        return 1e3 * self.self_s.get(key, 0.0)

    def layer_ms(self, layer: str) -> float:
        return 1e3 * sum(s for k, s in self.self_s.items() if k.split(".")[0] == layer)

    def count(self, *keys: str) -> int:
        return sum(self.calls.get(k, 0) for k in keys)
