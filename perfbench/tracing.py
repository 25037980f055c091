"""Call-site spans for the benchmark's traced runs.

The program is not edited.  Spans are recorded by replacing, for the
duration of one call of ``satiss.cli.main``, the module attributes through
which ``satiss.cli``, ``satiss.iss``, ``satiss.lyapunov`` and
``satiss.saturation`` reach the public functions of the other modules (plus
the report writer methods) with timing wrappers, and restoring them
afterwards.  Spans stay in memory; the caller writes them out when the run
ends.
"""
from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span in the same tracer, -1 at top
    run_id: int        # one id per traced call of cli.main
    counts: dict = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _simulate_counts(args, kwargs, trajectory):
    return {"steps": len(trajectory) - 1}


def _axiom_counts(args, kwargs, report):
    return {"samples": report.samples_used,
            "violations": report.bound_violations + report.monotonicity_violations}


#: (owner, attribute, span name, work counter).  An owner is a module, or
#: ``module:Class`` for a method.  Every owner is looked up by the caller
#: at call time, so replacing the attribute intercepts the call.
CALL_SITES = (
    ("satiss.cli", "parse_config", "cli.parse_config", None),
    ("satiss.cli", "build_kdv_operator", "system.build_kdv_operator", None),
    ("satiss.lyapunov", "build_kdv_operator", "system.build_kdv_operator", None),
    ("satiss.cli", "linear_loop_operator", "system.linear_loop_operator", None),
    ("satiss.cli", "simulate", "system.simulate", _simulate_counts),
    ("satiss.iss", "simulate", "system.simulate", _simulate_counts),
    ("satiss.system:Trajectory", "write_states_csv", "system.write_csv", None),
    ("satiss.system:Trajectory", "write_observables_csv", "system.write_csv", None),
    ("satiss.cli", "check_axioms", "saturation.check_axioms", _axiom_counts),
    ("satiss.lyapunov", "dissipation_report", "lyapunov.dissipation_report", None),
    ("satiss.lyapunov:DissipationReport", "write_csv", "lyapunov.write_csv", None),
    ("satiss.iss", "iss_certificate", "iss.iss_certificate", None),
    ("satiss.iss", "gronwall_gap", "iss.gronwall_gap", None),
    ("satiss.iss:GapReport", "write_csv", "iss.write_csv", None),
    ("satiss.iss", "smooth_initial_data", "iss.smooth_initial_data", None),
    ("satiss.iss", "random_smooth_values", "spaces.random_smooth_values", None),
    ("satiss.lyapunov", "random_smooth_values", "spaces.random_smooth_values", None),
    ("satiss.saturation", "random_smooth_values", "spaces.random_smooth_values", None),
)

#: Call sites of ``simulate``; the set-up clock stops at the first entry.
SIMULATE_SITES = tuple((path, attr) for path, attr, name, _ in CALL_SITES
                       if name == "system.simulate")


def _owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def patched(replacements):
    """Set ``owner.attribute = make(original)`` for each (owner path,
    attribute, make) while the block runs, then restore the originals."""
    saved = []
    try:
        for path, attribute, make in replacements:
            owner = _owner(path)
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, make(original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._open = []

    def wrap(self, name, fn, counter=None):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_spans[-1] if open_spans else -1,
                        self.run_id)
            open_spans.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return traced

    def _traced_observer_factory(self, factory):
        def traced(*args, **kwargs):
            return {key: self.wrap("lyapunov.observer", fn)
                    for key, fn in factory(*args, **kwargs).items()}
        return traced

    def replacements(self):
        """Patch list covering every call site, including the observer
        callables handed out by ``trajectory_observers``."""
        out = [(path, attr, lambda fn, name=name, counter=counter:
                self.wrap(name, fn, counter))
               for path, attr, name, counter in CALL_SITES]
        out.append(("satiss.lyapunov", "trajectory_observers",
                    self._traced_observer_factory))
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(dict(asdict(span), index=index)) + "\n")


class SetupClock:
    """Records the time of the first entry into ``simulate``."""

    def __init__(self):
        self.first_entry = None

    def _hook(self, fn):
        def hooked(*args, **kwargs):
            if self.first_entry is None:
                self.first_entry = perf_counter()
            return fn(*args, **kwargs)
        return hooked

    def replacements(self):
        return [(path, attr, self._hook) for path, attr in SIMULATE_SITES]


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def layer_metrics(spans, run_id):
    """Per-layer figures of one traced call of ``cli.main``.

    A layer the workload does not reach reads 0.
    """
    selfs = self_times(spans)
    chosen = [(s, t) for s, t in zip(spans, selfs) if s.run_id == run_id]

    def pick(name):
        return [(s, t) for s, t in chosen if s.name == name]

    def total(name):
        return sum(s.duration for s, _ in pick(name))

    def self_total(name):
        return sum(t for _, t in pick(name))

    def count(name, key):
        return sum((s.counts or {}).get(key, 0) for s, _ in pick(name))

    steps = count("system.simulate", "steps")
    samples = count("saturation.check_axioms", "samples")
    return {
        "system.simulate.us_per_step":
            1e6 * self_total("system.simulate") / steps if steps else 0.0,
        "system.simulate.calls": len(pick("system.simulate")),
        "system.simulate.steps": steps,
        "system.build_kdv_operator.s": total("system.build_kdv_operator"),
        "system.linear_loop_operator.s": total("system.linear_loop_operator"),
        "system.write_csv.s": total("system.write_csv"),
        "saturation.check_axioms.us_per_sample":
            1e6 * total("saturation.check_axioms") / samples if samples else 0.0,
        "saturation.check_axioms.samples": samples,
        "saturation.check_axioms.violations":
            count("saturation.check_axioms", "violations"),
        "lyapunov.observer.calls": len(pick("lyapunov.observer")),
        "lyapunov.observer.s": total("lyapunov.observer"),
        "lyapunov.dissipation_report.s": total("lyapunov.dissipation_report"),
        "iss.iss_certificate.self_s": self_total("iss.iss_certificate"),
        "iss.gronwall_gap.self_s": self_total("iss.gronwall_gap"),
        "iss.write_csv.s": total("iss.write_csv"),
        "spaces.random_smooth_values.calls": len(pick("spaces.random_smooth_values")),
        "spaces.random_smooth_values.s": total("spaces.random_smooth_values"),
        "cli.parse_config.s": total("cli.parse_config"),
        "cli.main.self_s": self_total("cli.main"),
    }
