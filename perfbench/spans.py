"""Outside-in tracing of matroidkl for the benchmark's traced runs.

``Tracer.install`` replaces public functions of the library's modules with
wrappers.  Each call records a span (id, parent id, name, start, end) in
memory and adds to per-group totals: calls, inclusive time and self time (the
span's duration minus its direct child spans).  Nothing in the library
changes.

Modules import functions by name (``realroot`` holds its own ``poly_gcd``),
so a function is rebound in every module namespace and class dict that holds
that same object.  A boundary whose name no longer exists is recorded as
absent instead of failing, so the tracer keeps working while the library's
internals are rewritten.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# metric group -> boundaries ("module", "attribute" or "Class.method")
BOUNDARIES = {
    "matroids.rank_table": [("matroids", "graphic_matroid"), ("matroids", "whirl_matroid")],
    "matroids.flats": [("matroids", "RankOracleMatroid.flats")],
    "matroids.characteristic": [("matroids", "characteristic_polynomial")],
    "graphs.chromatic": [("graphs", "chromatic_polynomial")],
    "kl.lattice": [("kl", "lattice_of")],
    "kl.pass": [("kl", "kl_poly"), ("kl", "z_poly")],
    "kl.iso": [("kl", "lattice_isomorphic")],
    "kl.closed": [("kl", "kl_closed"), ("kl", "z_closed")],
    "kl.recurrence": [("kl", "kl_recurrence")],
    "poly.divexact": [("poly", "divexact")],
    "poly.gcd": [("poly", "poly_gcd")],
    "poly.divmod": [("poly", "poly_divmod")],
    "poly.eval": [("poly", "Poly.__call__")],
    "series.expand": [("series", "gf_expand")],
    "series.mul": [("series", "TruncSeries.__mul__")],
    "series.inverse": [("series", "TruncSeries.inverse")],
    "series.sqrt": [("series", "TruncSeries.sqrt")],
    "realroot.sturm": [("realroot", "sturm_chain")],
    "realroot.isolate": [("realroot", "isolate_real_roots")],
    "realroot.refine": [("realroot", "refine")],
    "realroot.interlacing": [("realroot", "interleaves")],
    "realroot.certificate": [
        ("realroot", name)
        for name in (
            "is_real_rooted",
            "all_zeros_negative",
            "count_real_roots",
            "n_sequence_check",
            "verify_lucas_fibonacci",
            "verify_wheel_z_quadratic",
            "verify_narayana_identity",
        )
    ],
    "cli.record": [("cli", "compute_record")],
}

# metrics counted from a boundary's return value, outside its span; absent
# when a rewrite removes the attribute they read
COUNTER_METRICS = {
    "matroids.flats", "kl.comparable_pairs", "kl.iso_match_ratio",
    "realroot.chain_len_max", "realroot.coeff_bits_max",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = {group: [0, 0, 0] for group in BOUNDARIES}  # calls, ns, self ns
        self.counters = dict.fromkeys(
            ("matroids.flats", "kl.comparable_pairs", "kl.iso_matches",
             "realroot.chain_len_max", "realroot.coeff_bits_max"), 0)
        self.absent = []
        self.broken_counters = set()  # groups whose results lacked a counted attribute
        self._stack = [[0, 0]]  # [span id, ns covered by direct children]
        self._next_id = 1
        self._seen = set()  # ids of cached results already counted
        self._keep = []  # keeps counted results alive so their ids stay unique

    def install(self, package):
        """Wrap every boundary found in the package's loaded modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for group, boundaries in BOUNDARIES.items():
            for modname, attr in boundaries:
                module = sys.modules.get(f"{package}.{modname}")
                owner_name, _, func_name = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                func = getattr(owner, func_name, None) if owner is not None else None
                if func is None:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                wrapper = self._wrap(group, f"{modname}.{attr}", func)
                holders = [owner] if owner_name else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is func:
                            setattr(holder, key, wrapper)

    def _wrap(self, group, name, func):
        totals = self.totals[group]
        stack = self._stack
        spans = self.spans
        count = {
            "matroids.flats": self._count_flats,
            "kl.lattice": self._count_lattice,
            "kl.iso": self._count_iso,
            "realroot.sturm": self._count_sturm,
        }.get(group)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0]
            parent = stack[-1]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                took = end - start
                parent[1] += took
                totals[0] += 1
                totals[1] += took
                totals[2] += took - frame[1]
                spans.append((span_id, parent[0], name, start, end))
            if count is not None:
                try:
                    count(result)
                except (AttributeError, TypeError):
                    self.broken_counters.add(group)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code, such as one workload item."""
        frame = [self._next_id, 0]
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            parent[1] += end - start
            self.spans.append((frame[0], parent[0], name, start, end))

    def _once(self, result):
        if id(result) in self._seen:
            return False
        self._seen.add(id(result))
        self._keep.append(result)
        return True

    def _count_flats(self, flats):
        if self._once(flats):
            self.counters["matroids.flats"] += len(flats)

    def _count_lattice(self, lattice):
        if self._once(lattice):
            self.counters["kl.comparable_pairs"] += sum(b.bit_count() for b in lattice.below)

    def _count_iso(self, verdict):
        self.counters["kl.iso_matches"] += verdict is True

    def _count_sturm(self, chain):
        c = self.counters
        c["realroot.chain_len_max"] = max(c["realroot.chain_len_max"], len(chain.polys))
        bits = max((abs(int(x)).bit_length() for p in chain.polys for x in p.coeffs), default=0)
        c["realroot.coeff_bits_max"] = max(c["realroot.coeff_bits_max"], bits)

    def write(self, path, header):
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer, kl_stats):
    """Per-layer metrics from a finished trace, and the names found absent.

    ``kl_stats`` is the KL context's stats delta over the run, or None when
    the library no longer has that context.
    """
    tot = tracer.totals
    c = tracer.counters
    absent = set(tracer.absent)
    missing_groups = {g for g, bs in BOUNDARIES.items()
                      if all(f"{m}.{a}" in absent for m, a in bs)}

    def incl(group):
        return tot[group][1] / 1e9

    def self_s(group):
        return tot[group][2] / 1e9

    def calls(group):
        return tot[group][0]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "matroids.rank_table_s": (incl("matroids.rank_table"), "s", "matroids.rank_table"),
        "matroids.flats_s": (incl("matroids.flats"), "s", "matroids.flats"),
        "matroids.flats": (c["matroids.flats"], "count", "matroids.flats"),
        "matroids.characteristic_s": (incl("matroids.characteristic"), "s", "matroids.characteristic"),
        "graphs.chromatic_s": (incl("graphs.chromatic"), "s", "graphs.chromatic"),
        "kl.lattice_s": (incl("kl.lattice"), "s", "kl.lattice"),
        "kl.comparable_pairs": (c["kl.comparable_pairs"], "count", "kl.lattice"),
        "kl.pass_self_s": (self_s("kl.pass"), "s", "kl.pass"),
        "kl.iso_s": (incl("kl.iso"), "s", "kl.iso"),
        "kl.iso_checks": (calls("kl.iso"), "count", "kl.iso"),
        "kl.iso_match_ratio": (ratio(c["kl.iso_matches"], calls("kl.iso")), "ratio", "kl.iso"),
        "kl.memo_hits": ((kl_stats or {}).get("hits", 0), "count", "kl.context"),
        "kl.expansions": ((kl_stats or {}).get("expansions", 0), "count", "kl.context"),
        "kl.closed_s": (incl("kl.closed"), "s", "kl.closed"),
        "kl.recurrence_s": (incl("kl.recurrence"), "s", "kl.recurrence"),
        "poly.divexact_s": (incl("poly.divexact"), "s", "poly.divexact"),
        "series.expand_self_s": (self_s("series.expand"), "s", "series.expand"),
        "series.mul_s": (incl("series.mul"), "s", "series.mul"),
        "series.inverse_s": (incl("series.inverse"), "s", "series.inverse"),
        "series.sqrt_s": (incl("series.sqrt"), "s", "series.sqrt"),
        "realroot.sturm_s": (incl("realroot.sturm"), "s", "realroot.sturm"),
        "realroot.sturm_chains": (calls("realroot.sturm"), "count", "realroot.sturm"),
        "realroot.isolations": (calls("realroot.isolate"), "count", "realroot.isolate"),
        "realroot.chains_per_isolation": (
            ratio(calls("realroot.sturm"), calls("realroot.isolate")), "ratio", "realroot.isolate"),
        "realroot.chain_len_max": (c["realroot.chain_len_max"], "count", "realroot.sturm"),
        "realroot.coeff_bits_max": (c["realroot.coeff_bits_max"], "bits", "realroot.sturm"),
        "realroot.isolate_s": (incl("realroot.isolate"), "s", "realroot.isolate"),
        "realroot.refine_s": (incl("realroot.refine"), "s", "realroot.refine"),
        "realroot.certificate_self_s": (self_s("realroot.certificate"), "s", "realroot.certificate"),
        "realroot.interlacing_s": (incl("realroot.interlacing"), "s", "realroot.interlacing"),
        "poly.gcd_s": (incl("poly.gcd"), "s", "poly.gcd"),
        "poly.gcd_calls": (calls("poly.gcd"), "count", "poly.gcd"),
        "poly.divmod_s": (incl("poly.divmod"), "s", "poly.divmod"),
        "poly.divmod_calls": (calls("poly.divmod"), "count", "poly.divmod"),
        "poly.eval_s": (incl("poly.eval"), "s", "poly.eval"),
        "poly.eval_calls": (calls("poly.eval"), "count", "poly.eval"),
        "cli.record_self_s": (self_s("cli.record"), "s", "cli.record"),
    }
    if kl_stats is None:
        missing_groups.add("kl.context")
    metrics, gone = {}, []
    for name, (value, unit, group) in m.items():
        metrics[name] = {"value": value, "unit": unit}
        if group in missing_groups or (
            name in COUNTER_METRICS and group in tracer.broken_counters
        ):
            gone.append(name)
    return metrics, gone
