"""Span tracing from outside the program, for the traced benchmark run.

``Tracer.install`` replaces each layer's public functions with a wrapper on
the module attribute through which the pipeline calls them (for example
``doqkd.session.simulate_session``, which is how ``run_experiment`` reaches
the simulator). Each call records a span ``[name, start, end, parent,
op]``; spans stay in memory until the run ends. Counters are filled from
the wrapped calls' arguments and results, at the same boundaries.

A span's layer is the part of its name before the first dot. Self time is
a span's duration minus the time covered by its child spans.
"""
from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from doqkd import io as dio
from doqkd import postproc, security, session, sifting

LAYERS = ("simulate", "session", "timetags", "sifting", "security", "ldpc",
          "postproc", "io", "bench")


def _count_simulate(c, args, kwargs, tags):
    c["simulate.tags_out"] += tags.total_tags


def _count_histogram(c, args, kwargs, hist):
    c["timetags.histogram_pairs"] += hist.total


def _count_sifting(c, args, kwargs, res):
    c["sifting.frames_kept"] += res.kept_frames
    c["sifting.frames_common"] += res.kept_frames + res.discarded_bin_mismatch


def _count_decode(c, args, kwargs, result):
    corrected, iters = result
    code = args[2] if len(args) > 2 else kwargs["code"]
    c["ldpc.blocks"] += 1
    c["ldpc.iterations"] += iters
    c["ldpc.edge_updates"] += code.n_edges * iters
    c["ldpc.blocks_failed"] += corrected is None


def _count_pa(c, args, kwargs, key):
    c["postproc.pa_bits_in"] += len(args[0])
    c["postproc.pa_bits_out"] += key.size


def _count_read(c, args, kwargs, stream):
    c["io.bytes_read"] += os.path.getsize(args[0])


# (module, attribute as called, span name, counter)
WRAPPED = (
    (session, "run_experiment", "session.run_experiment", None),
    (session, "sweep", "session.sweep", None),
    (session, "compute_baseline", "session.compute_baseline", None),
    (session, "analyze_security", "session.analyze_security", None),
    (session, "align_bob", "session.align_bob", None),
    (session, "simulate_session", "simulate.simulate_session", _count_simulate),
    (session, "coincidence_histogram", "timetags.coincidence_histogram",
     _count_histogram),
    (session, "effective_rates", "timetags.effective_rates", None),
    (session, "split_security_fraction", "sifting.split_security_fraction", None),
    (sifting, "security_mask", "sifting.security_mask", None),
    (session, "security_mask", "sifting.security_mask", None),
    (session, "run_sifting", "sifting.run_sifting", _count_sifting),
    (session, "qber", "sifting.qber", None),
    (session, "pack_symbols", "sifting.pack_symbols", None),
    (session, "estimate_tfcm", "security.estimate_tfcm", None),
    (session, "holevo_bound", "security.holevo_bound", None),
    (session, "gaussian_time_information", "security.gaussian_time_information",
     None),
    (session, "shannon_info", "security.shannon_info", None),
    (session, "mutual_information", "security.mutual_information", None),
    (security, "mutual_information", "security.mutual_information", None),
    (session, "gray_encode_symbols", "postproc.gray_encode_symbols", None),
    (session, "reconcile_key", "postproc.reconcile_key", None),
    (postproc, "make_code", "ldpc.make_code", None),
    (postproc, "syndrome", "ldpc.syndrome", None),
    (postproc, "decode_syndrome", "ldpc.decode_syndrome", _count_decode),
    (postproc, "verification_hash", "postproc.verification_hash", None),
    (session, "privacy_amplify", "postproc.privacy_amplify", _count_pa),
    (dio, "read_ttag", "io.read_ttag", _count_read),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.t0 = time.perf_counter()

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for module, attr, name, counter in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def op(self, op_id: int, name: str = "bench.op"):
        """One benchmark op: the root span of the calls it makes."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, -1, op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
            self.op_id = -1

    def summary(self) -> dict:
        """Inclusive and self time and calls per span name, self time per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0,
                                                        "self_s": 0.0})
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _, _), c in zip(self.spans, child):
            entry = by_name[name]
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += end - start - c
            by_layer[name.split(".", 1)[0]] += end - start - c
        return {"by_name": dict(by_name), "by_layer": by_layer}

    def export(self) -> list[list]:
        """Spans with times relative to the tracer's creation."""
        return [[n, s - self.t0, e - self.t0, p, o] for n, s, e, p, o in self.spans]
