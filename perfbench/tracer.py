"""Per-layer tracing of netalloc from outside the library.

Each traced function is replaced, at the module or class attribute its
caller looks up, by a wrapper that records a span: name, start, end and the
span that was open when it started.  Utility methods, which run millions of
times, are plain counters instead, attributed to the innermost open span.
Spans stay in memory until ``write_spans`` at the end of the run.

A layer's self time is its spans' total duration minus the time their
direct child spans cover.  Hooks whose attribute no longer exists are
skipped and listed in ``Tracer.missing``, so a refactor of the library makes
a metric read zero rather than breaking the run.
"""

from __future__ import annotations

import gzip
import importlib
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from netalloc.dynamics import Converged

# (span name, owner, attribute).  The owner is a module, or "module:Class".
SPAN_HOOKS = (
    ("instances.generate", "netalloc.instances", "gen_torus_grid"),
    ("instances.generate", "netalloc.instances", "gen_random_instance"),
    ("instances.to_game_spec", "netalloc.instances:InstanceDocument", "to_game_spec"),
    ("experiment.run_batch_experiment", "netalloc.experiment", "run_batch_experiment"),
    ("analysis.global_optimum", "netalloc.experiment", "global_optimum"),
    ("dynamics.init_profile", "netalloc.experiment", "init_profile"),
    ("dynamics.init_profile", "netalloc.dynamics", "init_profile"),
    ("dynamics.run_sequential", "netalloc.experiment", "run_sequential"),
    ("dynamics.run_sequential", "netalloc.dynamics", "run_sequential"),
    ("game.social_welfare", "netalloc.experiment", "social_welfare"),
    ("game.social_welfare", "netalloc.dynamics", "social_welfare"),
    ("game.social_welfare", "netalloc.game", "social_welfare"),
    ("game.check_feasible", "netalloc.dynamics", "check_feasible"),
    ("bestresponse.best_response", "netalloc.dynamics", "best_response"),
    ("game.player_utility", "netalloc.dynamics", "player_utility"),
    ("game.is_integral", "netalloc.game:FrequencyProfile", "is_integral"),
)

COUNTER_HOOKS = (
    ("utility.value", "netalloc.utility:UtilitySpec", "value"),
    ("utility.marginal", "netalloc.utility:UtilitySpec", "marginal"),
    ("utility.inverse_marginal", "netalloc.utility:UtilitySpec", "inverse_marginal"),
)

BR = "bestresponse.best_response"


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _sequential_rounds(result) -> int:
    status = result[2]
    return status.t if isinstance(status, Converged) else 0


def _optimum_iterations(result) -> int:
    return result.iterations


# span name -> (total key, function of the wrapped call's return value)
RESULT_HOOKS = {
    "dynamics.run_sequential": ("dynamics.rounds", _sequential_rounds),
    "analysis.global_optimum": ("analysis.global_optimum.iterations", _optimum_iterations),
}


class Tracer:
    """Installs the hooks on ``install`` and removes them on ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()  # (counter name, innermost span) -> calls
        self.totals: Counter = Counter()  # RESULT_HOOKS keys -> summed values
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._names: list[str] = []
        self._saved: list = []

    def _span(self, name, fn):
        spans, stack, names = self.spans, self._stack, self._names
        result_hook = RESULT_HOOKS.get(name)
        totals = self.totals

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            names.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                names.pop()
                spans[idx] = (name, start, end, parent)
            if result_hook is not None:
                totals[result_hook[0]] += result_hook[1](result)
            return result

        return traced

    def _counter(self, name, fn):
        counts, names = self.counts, self._names

        # the counted methods all take one argument; a fixed signature keeps
        # the wrapper cheap on the hottest calls
        def counted(obj, arg):
            counts[(name, names[-1] if names else None)] += 1
            return fn(obj, arg)

        return counted

    def install(self) -> None:
        for hooks, make in ((SPAN_HOOKS, self._span), (COUNTER_HOOKS, self._counter)):
            for name, owner_path, attr in hooks:
                owner = _owner(owner_path)
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Span name -> calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[idx]
        return out

    def calls(self, counter: str, inside: str | None = None) -> int:
        """Calls of a counted method, optionally only those made while
        ``inside`` was the innermost open span."""
        return sum(
            n
            for (name, span), n in self.counts.items()
            if name == counter and (inside is None or span == inside)
        )

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: index, parent, name, start, end
        (seconds since the first span started)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced unit of work (all but
    ``trace.overhead_s``, which needs an untraced run)."""
    agg = tracer.aggregate()

    def span(name: str, key: str) -> float:
        return agg[name][key] if name in agg else 0

    br_calls = span(BR, "calls")
    rounds = tracer.totals["dynamics.rounds"]
    iterations = tracer.totals["analysis.global_optimum.iterations"]
    seq_self = span("dynamics.run_sequential", "self_s")
    opt_s = span("analysis.global_optimum", "s")
    # best_response's only traced child is is_integral, so its self time is
    # its duration without is_integral (utility calls are counters, not spans)
    return {
        "bestresponse.best_response.calls": br_calls,
        "bestresponse.best_response.s": span(BR, "s"),
        "bestresponse.best_response.self_s": span(BR, "self_s"),
        "bestresponse.best_response.us_per_call": 1e6 * span(BR, "s") / br_calls if br_calls else 0.0,
        "bestresponse.useful_ratio": rounds / br_calls if br_calls else 0.0,
        "utility.inverse_marginal.calls": tracer.calls("utility.inverse_marginal"),
        "utility.marginal.calls": tracer.calls("utility.marginal"),
        "utility.value.calls": tracer.calls("utility.value"),
        "utility.inverse_marginal.per_br": (
            tracer.calls("utility.inverse_marginal", inside=BR) / br_calls if br_calls else 0.0
        ),
        "game.is_integral.calls": span("game.is_integral", "calls"),
        "game.is_integral.s": span("game.is_integral", "s"),
        "game.player_utility.calls": span("game.player_utility", "calls"),
        "game.player_utility.s": span("game.player_utility", "s"),
        "game.social_welfare.s": span("game.social_welfare", "s"),
        "game.check_feasible.s": span("game.check_feasible", "s"),
        "dynamics.run_sequential.s": span("dynamics.run_sequential", "s"),
        "dynamics.run_sequential.self_s": seq_self,
        "dynamics.rounds": rounds,
        "dynamics.self_us_per_round": 1e6 * seq_self / rounds if rounds else 0.0,
        "dynamics.init_profile.s": span("dynamics.init_profile", "s"),
        "analysis.global_optimum.calls": span("analysis.global_optimum", "calls"),
        "analysis.global_optimum.s": opt_s,
        "analysis.global_optimum.iterations": iterations,
        "analysis.global_optimum.ms_per_iter": 1e3 * opt_s / iterations if iterations else 0.0,
        "experiment.run_batch_experiment.s": span("experiment.run_batch_experiment", "s"),
        "experiment.self_s": span("experiment.run_batch_experiment", "self_s"),
        "instances.generate.s": span("instances.generate", "s"),
        "instances.to_game_spec.s": span("instances.to_game_spec", "s"),
    }
