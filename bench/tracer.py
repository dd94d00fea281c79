"""Per-layer timing by wrapping gmfkit's public functions from outside.

Wrappers replace module attributes (in every gmfkit module that holds the
same function object, so re-exports and `from ... import` bindings are
covered) and class methods.  Each wrapped call is a span; a span's self time
is its duration minus the time of the wrapped calls made inside it, so
nested layers are not counted twice.  Exact counts are taken afterwards from
the public result objects the wrapped calls returned.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute); "Class.method" wraps a method
SPANS = {
    "graded_f2.rank_f2": ("gmfkit.graded_f2", "rank_f2"),
    "graded_f2.rref_f2": ("gmfkit.graded_f2", "rref_f2"),
    "graded_f2.transpose_bits": ("gmfkit.graded_f2", "transpose_bits"),
    "char_class_maps.build_Y": ("gmfkit.char_class_maps", "build_Y"),
    "char_class_maps.build_Y1": ("gmfkit.char_class_maps", "build_Y1"),
    "char_class_maps.map_f": ("gmfkit.char_class_maps", "map_f"),
    "char_class_maps.map_g": ("gmfkit.char_class_maps", "map_g"),
    "char_class_maps.homology_map": ("gmfkit.char_class_maps", "RingMap.homology_map"),
    "moduli_calc.build_zigzag": ("gmfkit.moduli_calc", "build_zigzag"),
    "moduli_calc.hocolim_series": ("gmfkit.moduli_calc", "hocolim_series"),
    "family_analysis.fiber_critical_points": ("gmfkit.family_analysis", "fiber_critical_points"),
    "family_analysis.trace_birth_death": ("gmfkit.family_analysis", "trace_birth_death"),
    "jet_core.jet_from_json_dict": ("gmfkit.jet_core", "jet_from_json_dict"),
    "jet_core.classify": ("gmfkit.jet_core", "classify"),
    "jet_core.spectral_split": ("gmfkit.jet_core", "spectral_split"),
    "jet_core.normal_form": ("gmfkit.jet_core", "birth_death_linear_normal_form"),
    "cli.main": ("gmfkit.cli", "main"),
}

# identity checks and the series they assemble, all in moduli_calc
CHECK_FUNCTIONS = (
    "gysin_check", "hocolim_cofiber_check", "connectivity_and_pi0_checks",
    "d1_oracle_check", "sigma_mf_cofibration_check", "sigma_gmf_series",
    "cofiber_series", "wedge_target_series", "sigma_mf_series", "mtgmf_series",
    "mt_series",
)
for _name in CHECK_FUNCTIONS:
    SPANS[f"moduli_calc.{_name}"] = ("gmfkit.moduli_calc", _name)

# results kept for exact counts after the run
KEEP = ("moduli_calc.hocolim_series", "char_class_maps.homology_map",
        "family_analysis.trace_birth_death")

PER_LAYER = (
    ("graded_f2.rank_s", "s"),
    ("graded_f2.transpose_s", "s"),
    ("graded_f2.phi_bits", "count"),
    ("graded_f2.phi_nonzeros", "count"),
    ("graded_f2.rank_total", "count"),
    ("char_class_maps.rings_s", "s"),
    ("char_class_maps.ring_maps_s", "s"),
    ("char_class_maps.homology_map_s", "s"),
    ("char_class_maps.matrix_nonzeros", "count"),
    ("moduli_calc.zigzag_s", "s"),
    ("moduli_calc.hocolim_s", "s"),
    ("moduli_calc.phi_assembly_s", "s"),
    ("moduli_calc.checks_s", "s"),
    ("family_analysis.sampling_s", "s"),
    ("family_analysis.refine_s", "s"),
    ("family_analysis.seeds", "count"),
    ("family_analysis.sample_points", "count"),
    ("family_analysis.points_per_seed", "points/seed"),
    ("family_analysis.events", "count"),
    ("jet_core.parse_s", "s"),
    ("jet_core.classify_s", "s"),
    ("jet_core.spectral_split_s", "s"),
    ("jet_core.normal_form_s", "s"),
    ("jet_core.classify_calls", "count"),
    ("cli.overhead_s", "s"),
    ("tracing.overhead_s", "s"),
)


def _popcount_rows(graded_map, top_degree: int) -> int:
    return sum(bin(r).count("1")
               for n in range(top_degree + 1) for r in graded_map.rows[n])


class Tracer:
    def __init__(self):
        self.stack: list = []  # [span name, child seconds]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.kept = defaultdict(list)
        self.seeds = 0

    def _span(self, name, fn):
        keep = name in KEEP
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.incl_s[name] += dt
                self.self_s[name] += dt - frame[1]
                self.calls[name] += 1
            if keep:
                self.kept[name].append((args, out))
            return out

        return wrapper

    def _count_seeds(self, fn):
        # a Newton start made directly by fiber_critical_points is one seed
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == "family_analysis.fiber_critical_points":
                self.seeds += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "gmfkit" or name.startswith("gmfkit.")]
        targets = [(name, mod, attr) for name, (mod, attr) in SPANS.items()]
        targets.append((None, "gmfkit.family_analysis", "_newton"))
        for name, modname, attr in targets:
            home = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._span(name, getattr(cls, meth)))
                continue
            original = getattr(home, attr)
            wrapped = self._count_seeds(original) if name is None else self._span(name, original)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapped)

    def layers(self) -> dict:
        """Per-layer figures for everything run since install()."""
        s, inc = self.self_s, self.incl_s
        phi_bits = phi_nonzeros = rank_total = 0
        for (z, *_), h in self.kept["moduli_calc.hocolim_series"]:
            phi_bits += sum(t * w for t, w in zip(h.T_dims, h.S_dims))
            rank_total += sum(h.rank)
            phi_nonzeros += sum(_popcount_rows(gm, h.N) for gm in z.f_maps + z.g_maps)
        matrix_nonzeros = sum(_popcount_rows(gm, gm.N)
                              for _, gm in self.kept["char_class_maps.homology_map"])
        traces = [r for _, r in self.kept["family_analysis.trace_birth_death"]]
        checks = sum(s[f"moduli_calc.{n}"] for n in CHECK_FUNCTIONS)
        return {
            "graded_f2.rank_s": s["graded_f2.rank_f2"] + s["graded_f2.rref_f2"],
            "graded_f2.transpose_s": s["graded_f2.transpose_bits"],
            "graded_f2.phi_bits": phi_bits,
            "graded_f2.phi_nonzeros": phi_nonzeros,
            "graded_f2.rank_total": rank_total,
            "char_class_maps.rings_s": s["char_class_maps.build_Y"] + s["char_class_maps.build_Y1"],
            "char_class_maps.ring_maps_s": s["char_class_maps.map_f"] + s["char_class_maps.map_g"],
            "char_class_maps.homology_map_s": s["char_class_maps.homology_map"],
            "char_class_maps.matrix_nonzeros": matrix_nonzeros,
            "moduli_calc.zigzag_s": s["moduli_calc.build_zigzag"],
            "moduli_calc.hocolim_s": inc["moduli_calc.hocolim_series"],
            "moduli_calc.phi_assembly_s": s["moduli_calc.hocolim_series"],
            "moduli_calc.checks_s": checks,
            "family_analysis.sampling_s": s["family_analysis.fiber_critical_points"],
            "family_analysis.refine_s": s["family_analysis.trace_birth_death"],
            "family_analysis.seeds": self.seeds,
            "family_analysis.sample_points": sum(len(pts) for r in traces for _, pts in r.samples),
            "family_analysis.events": sum(len(r.events) for r in traces),
            "jet_core.parse_s": s["jet_core.jet_from_json_dict"],
            "jet_core.classify_s": s["jet_core.classify"],
            "jet_core.spectral_split_s": s["jet_core.spectral_split"],
            "jet_core.normal_form_s": s["jet_core.normal_form"],
            "jet_core.classify_calls": self.calls["jet_core.classify"],
            "cli.overhead_s": s["cli.main"],
        }
