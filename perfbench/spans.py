"""Span tracing of ffl's layers, installed from outside the library.

``install`` replaces each public entry point of a layer with a wrapper, at
every name its callers actually look up (module globals, re-imported names,
class attributes and the CLI's function table), and returns a function that
puts the originals back.  A wrapper records a span (name, start, end, parent,
task) in memory and adds the call's self time -- its duration minus that of
the spans nested in it -- to the layer's bucket.  Calls made while no task is
running (set-up, oracles) pass straight through.

Hot leaf functions are marked ``leaf``: they still count and their time is
still taken out of the caller's self time, but they keep no span record, so a
run does not hold millions of tuples in memory.
"""

import functools
import time
from collections import defaultdict

import ffl.cli
from ffl import chargroup, lfunc, moments, multfun, polyring, series, sieveprobe

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.task = None          # id of the running task; None = not recording
        self.stack = []           # open frames: [child seconds, span id]
        self.next_id = 0
        self.spans = []           # (id, name, start, end, parent id, task id)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.units_built = 0
        self.chars_seen = set()   # distinct characters given to l_coeffs in this task
        self.distinct_chars = 0
        self.l_coeffs_calls = 0

    def begin_task(self, task_id):
        self.task = task_id
        self.chars_seen = set()
        return self.enter()

    def end_task(self, frame, start):
        """Close the task's root frame; its self time is time no span covered."""
        end = _now()
        self.exit("untraced", frame, start, end, leaf=False)
        self.distinct_chars += len(self.chars_seen)
        self.task = None

    def enter(self):
        frame = [0.0, self.next_id]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def exit(self, bucket, frame, start, end, leaf):
        self.stack.pop()
        dur = end - start
        self.self_s[bucket] += dur - frame[0]
        self.calls[bucket] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[0] += dur
        if not leaf:
            self.spans.append((frame[1], bucket, start, end,
                               parent[1] if parent else None, self.task))

    def wrap(self, bucket, fn, leaf=False, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.task is None:
                return fn(*args, **kwargs)
            frame = tracer.enter()
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(bucket, frame, start, _now(), leaf)
            if after is not None:
                after(tracer, args)
            return result
        return wrapper


def _count_units(tracer, args):
    tracer.units_built += args[0].phi


def _note_char(tracer, args):
    chi = args[0]
    tracer.l_coeffs_calls += 1
    tracer.chars_seen.add((id(chi.group), chi.kvec))


# bucket -> [(owners, attribute names, options)]; an owner is a module or class
# whose attribute the callers look up at call time.
LAYERS = {
    "polyring.factor": [
        ((polyring, multfun, moments, sieveprobe, lfunc, ffl.cli), ("factor",), {})],
    "polyring.primes": [   # mostly lru_cache hits inside factor
        ((polyring, multfun, ffl.cli), ("enumerate_primes",), {"leaf": True})],
    "multfun": [
        ((multfun,), ("mu", "omega", "big_omega", "radical", "divisor_count", "phi",
                      "phi_star", "p_minus", "p_plus", "is_squarefull",
                      "is_squarefree", "divisors"), {}),
        ((chargroup,), ("divisors", "mu", "phi"), {}),
        ((moments,), ("divisors", "is_squarefull", "mu", "omega", "phi", "phi_star"), {}),
        ((sieveprobe,), ("divisor_count", "divisors", "mu", "omega", "p_minus", "phi"), {})],
    "series": [
        ((series,), ("prime_counts", "binomial_factor", "monic_count_series",
                     "two_omega_series", "inverse_one_plus", "divisor_count_series",
                     "smooth_count_series", "inv_phi_series", "musq_phi_series",
                     "partial_value_at_inv_q", "partial_sum"), {}),
        ((series,), ("series_mul", "series_pow"), {"leaf": True}),
        ((moments,), ("monic_count_series", "partial_value_at_inv_q",
                      "two_omega_series"), {}),
        ((sieveprobe,), ("divisor_count_series", "monic_count_series", "partial_sum",
                         "partial_value_at_inv_q", "prime_counts",
                         "smooth_count_series", "two_omega_series"), {})],
    "chargroup.build": [
        ((chargroup.UnitGroup,), ("__init__",), {"after": _count_units})],
    "chargroup.mask": [
        ((chargroup, moments), ("primitive_mask",), {}),
        ((chargroup,), ("even_mask",), {})],
    "chargroup.char": [
        ((chargroup, ffl.cli), ("characters",), {}),
        ((chargroup.DirichletChar,), ("value", "is_even", "conductor", "is_primitive"), {}),
        ((chargroup.DirichletChar,), ("is_trivial", "conj", "phase_numerator", "value_code"),
         {"leaf": True})],
    "lfunc.table": [
        ((lfunc,), ("l_coeff_table",), {}),
        ((lfunc, moments), ("l_half_table",), {})],
    "lfunc.scalar": [
        ((lfunc,), ("l_coeffs",), {"after": _note_char}),
        ((lfunc, ffl.cli), ("l_eval", "l_trivial", "root_number"), {}),
        ((lfunc, moments), ("zeta_a",), {})],
    "moments.chars": [
        ((moments,), ("moment2_chars", "moment4_chars", "moment4_report"), {})],
    "moments.exact": [
        ((moments,), ("moment2_moebius_exact", "moment4_moebius_exact"), {})],
    "moments.formula": [
        ((moments,), ("moment2_formula", "moment4_main_term", "moment2_tamam_prime"), {})],
    "moments.diagonal": [
        ((moments,), ("diagonal_term_check",), {})],
    "sieveprobe": [
        ((sieveprobe,), ("bt_sum", "bt_sum_eq", "selberg_sifted_count", "two_omega_sum",
                         "two_omega_sum_coprime", "weighted_two_omega_sum",
                         "coprime_harmonic", "inv_phi_sum", "musq_phi_sum",
                         "inv_degp_sum", "smooth_count", "rough_divisor_sum",
                         "off_diagonal_count", "double_divisor_probe"), {})],
    "cli": [
        ((ffl.cli,), ("main", "_emit"), {})],
}


def install(tracer: Tracer):
    """Wrap every layer entry point; returns a function that restores them."""
    saved = []
    wrapped = {}   # one wrapper per original, shared by all names bound to it
    for bucket, groups in LAYERS.items():
        for owners, names, opts in groups:
            for owner in owners:
                for name in names:
                    orig = owner.__dict__[name]
                    if id(orig) not in wrapped:
                        wrapped[id(orig)] = tracer.wrap(bucket, orig, **opts)
                    saved.append((owner, name, orig))
                    setattr(owner, name, wrapped[id(orig)])
    table = ffl.cli.ARITH_FUNCS
    saved_table = dict(table)
    for key, fn in saved_table.items():
        if id(fn) in wrapped:
            table[key] = wrapped[id(fn)]

    def restore():
        for owner, name, orig in reversed(saved):
            setattr(owner, name, orig)
        table.update(saved_table)
    return restore
