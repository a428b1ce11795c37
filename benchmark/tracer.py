"""Per-layer spans, taken from outside the program.

Each traced function is replaced, for the duration of `Tracer.installed()`,
by a wrapper bound at the name its caller looks up (for example
`grushin.engine.oscillator_transform`, which `apply_multiplier` resolves in
the engine's module namespace).  A wrapper records the span's duration and
subtracts it from its parent span, so every label gets an inclusive time and
a self time; the self times of all labels add up to the traced time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def targets():
    """(owner, attribute, label, counts values produced) for every span."""
    from grushin import engine, fields, geometry, oscillator
    from grushin.lab import columns, profiles, radial

    return [
        (columns, "l1_multiplier_norm", "columns.l1_norm", False),
        (columns, "_kernel_slab_coeff", "columns.slab_coeff", False),
        (columns, "planar_radial_kernel", "columns.zero_slab", False),
        (columns, "bochner_riesz_radial_kernel", "columns.zero_slab", False),
        (columns, "hermite_table", "hermite.table", True),
        # the L1 path is the only caller of irfft in the program
        (np.fft, "irfft", "columns.irfft", True),
        (radial, "weighted_column_norms", "radial.column_norms", True),
        (radial, "laguerre_radial_table", "radial.laguerre", False),
        (radial, "_gauss_modes", "radial.gauss_modes", False),
        (engine, "apply_multiplier", "engine.apply_multiplier", False),
        (engine, "partial_fourier", "engine.fft", False),
        (engine, "inverse_partial_fourier", "engine.fft", False),
        (engine, "_apply_xi_zero", "engine.xi_zero", False),
        (engine, "oscillator_transform", "oscillator.transform", False),
        (engine, "oscillator_synthesis", "oscillator.synthesis", False),
        (oscillator, "hermite_table", "hermite.table", True),
        (fields.MultiplierProfile, "__call__", "fields.profile_eval", False),
        (profiles.PieceProfile, "__call__", "profiles.piece_eval", False),
        (geometry, "grushin_distance_field", "geometry.distance_field", False),
    ]


class Tracer:
    """Accumulates inclusive time, self time, calls and output sizes per label."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.values = Counter()
        self._children = []  # time spent in child spans, one entry per open span

    def wrap(self, fn, label: str, count_values: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._children.pop()
                self.inclusive[label] += elapsed
                self.self_time[label] += elapsed - child
                self.calls[label] += 1
                if self._children:
                    self._children[-1] += elapsed
            if count_values:
                self.values[label] += int(np.size(out))
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, name, label, count_values in targets():
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                setattr(owner, name, self.wrap(original, label, count_values))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, from the spans recorded."""
        s, inc, n, v = self.self_time, self.inclusive, self.calls, self.values
        return {
            "columns.l1_norm_s": inc["columns.l1_norm"],
            "columns.l1_norm_calls": n["columns.l1_norm"],
            "columns.slab_coeff_s": s["columns.slab_coeff"],
            "columns.zero_slab_s": s["columns.zero_slab"],
            "columns.irfft_s": s["columns.irfft"],
            "columns.irfft_values": v["columns.irfft"],
            "columns.self_s": s["columns.l1_norm"],
            "radial.column_norms_s": inc["radial.column_norms"],
            "radial.feet": v["radial.column_norms"],
            "radial.laguerre_s": s["radial.laguerre"],
            "radial.laguerre_calls": n["radial.laguerre"],
            "radial.gauss_modes_s": s["radial.gauss_modes"],
            "radial.gauss_modes_calls": n["radial.gauss_modes"],
            "radial.self_s": s["radial.column_norms"],
            "engine.apply_multiplier_s": inc["engine.apply_multiplier"],
            "engine.self_s": s["engine.apply_multiplier"],
            "engine.fft_s": s["engine.fft"],
            "engine.xi_zero_s": s["engine.xi_zero"],
            # one oscillator transform per |xi| group with active levels
            "engine.xi_groups": n["oscillator.transform"],
            "oscillator.transform_s": s["oscillator.transform"],
            "oscillator.synthesis_s": s["oscillator.synthesis"],
            "hermite.table_s": s["hermite.table"],
            "hermite.table_calls": n["hermite.table"],
            "hermite.table_values": v["hermite.table"],
            "fields.profile_eval_s": s["fields.profile_eval"],
            "fields.profile_eval_calls": n["fields.profile_eval"],
            "profiles.piece_eval_s": s["profiles.piece_eval"],
            "profiles.piece_eval_calls": n["profiles.piece_eval"],
            "geometry.distance_field_s": s["geometry.distance_field"],
        }
