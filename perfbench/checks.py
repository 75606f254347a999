"""Output checks for the serving workloads.

Every answer is compared with ``outgoing @ incoming.T`` of the vectors
the benchmark seeded, updated by every write it made. Writes come from
one sequential writer, so they are totally ordered; a read that ran
from ``start`` to ``end`` must agree with the state after every write
acknowledged before ``start`` — except that a host written by a write
in flight during the read (issued before ``end``, acknowledged after
``start``) may show either its pre-write or its post-write vectors.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .common import OpTally

RTOL = 1e-9
ATOL = 1e-9


def _close(a, b) -> np.ndarray:
    return np.isclose(a, b, rtol=RTOL, atol=ATOL)


class _History:
    """The write log as versions of host vectors."""

    def __init__(self, writes: list):
        self.writes = writes
        self.rows = [dict(zip(ids, range(len(ids)))) for ids, *_ in writes]
        issued = np.array([w[3] for w in writes], dtype=float)
        acked = np.array(
            [np.inf if isinstance(w[4], Exception) else w[4] for w in writes],
            dtype=float,
        )
        self.issued = issued
        # First write not yet acknowledged at a given time: a failed
        # write (never acknowledged) stays in flight for every later read.
        self.acked_prefix = np.maximum.accumulate(acked) if len(acked) else acked

    def window(self, start: float, end: float) -> tuple[int, int]:
        """``(k0, k1)``: writes ``[0, k0)`` are settled before ``start``;
        writes ``[k0, k1)`` may be in flight during the read."""
        k0 = int(np.searchsorted(self.acked_prefix, start, side="right"))
        k1 = int(np.searchsorted(self.issued, end, side="left"))
        return k0, max(k0, k1)

    def versions(self, host, base: np.ndarray, k0: int, k1: int, direction: int):
        """``base[host]`` plus the host's vectors in writes ``[k0, k1)``
        (``direction`` 1 = outgoing, 2 = incoming)."""
        found = [base[host]]
        for k in range(k0, k1):
            row = self.rows[k].get(host)
            if row is not None:
                found.append(self.writes[k][direction][row])
        return found


def _pair_ok(history, state, source, destination, value, k0, k1) -> bool:
    state_out, state_in = state
    return any(
        _close(np.dot(x, y), value)
        for x in history.versions(source, state_out, k0, k1, 1)
        for y in history.versions(destination, state_in, k0, k1, 2)
    )


def _nearest_ok(history, state, source, answer, k0, k1, k) -> bool:
    state_out, state_in = state
    n_hosts = state_in.shape[0]
    ids = [entry[0] for entry in answer]
    values = np.array([entry[1] for entry in answer], dtype=float)
    if (
        len(ids) != min(k, n_hosts - 1)
        or len(set(ids)) != len(ids)
        or source in ids
        or np.any(np.diff(values) < -ATOL)
    ):
        return False
    written = {}
    for position in range(k0, k1):
        for host, row in history.rows[position].items():
            written.setdefault(host, []).append(history.writes[position][2][row])
    for source_out in history.versions(source, state_out, k0, k1, 1):
        base = state_in @ source_out
        alternatives = {
            host: [float(np.dot(vector, source_out)) for vector in vectors]
            for host, vectors in written.items()
        }
        if not all(
            _close(value, base[host]) or any(_close(value, alternatives.get(host, [])))
            for host, value in zip(ids, values)
        ):
            continue
        # No host left out may be certainly nearer than the k-th answer.
        highest = base.copy()
        for host, options in alternatives.items():
            highest[host] = max(highest[host], *options)
        left_out = np.ones(n_hosts, dtype=bool)
        left_out[ids] = False
        left_out[source] = False
        threshold = values.max() - ATOL - RTOL * abs(values.max())
        if not np.any(highest[left_out] < threshold):
            return True
    return False


def check_phase(phase, outgoing: np.ndarray, incoming: np.ndarray, tally: OpTally) -> None:
    """Check every read and write of a phase; mismatches are failures."""
    history = _History(phase.writes)
    for write in phase.writes:
        tally.attempt("write")
        if isinstance(write[4], Exception):
            tally.fail("write", repr(write[4]))
    by_base = defaultdict(list)
    for read in phase.reads:
        kind, answer = read[0], read[2]
        tally.attempt(kind)
        if isinstance(answer, Exception):
            tally.fail(kind, repr(answer))
            continue
        by_base[history.window(read[3], read[4])[0]].append(read)

    state_out, state_in = outgoing.copy(), incoming.copy()
    applied = 0
    for k0 in sorted(by_base):
        while applied < k0:
            ids, new_out, new_in = phase.writes[applied][:3]
            state_out[ids], state_in[ids] = new_out, new_in
            applied += 1
        state = (state_out, state_in)
        reads = by_base[k0]
        points = [r for r in reads if r[0] == "point"]
        if points:
            sources = np.array([r[1][0] for r in points])
            destinations = np.array([r[1][1] for r in points])
            answers = np.array([float(r[2]) for r in points])
            expected = np.einsum("ij,ij->i", state_out[sources], state_in[destinations])
            for index in np.flatnonzero(~_close(expected, answers)):
                read = points[index]
                k1 = history.window(read[3], read[4])[1]
                if not _pair_ok(history, state, *read[1], answers[index], k0, k1):
                    tally.fail("point", f"{read[1]} -> {answers[index]!r}, "
                                        f"expected {expected[index]!r}")
        for read in reads:
            kind = read[0]
            if kind == "point":
                continue
            k1 = history.window(read[3], read[4])[1]
            if kind == "fanout":
                source, candidates = read[1]
                answer = np.asarray(read[2], dtype=float)
                if answer.shape != (len(candidates),):
                    tally.fail("fanout", f"source {source}: shape {answer.shape}")
                    continue
                expected = state_in[candidates] @ state_out[source]
                bad = [
                    position
                    for position in np.flatnonzero(~_close(expected, answer))
                    if not _pair_ok(history, state, source, candidates[position],
                                    answer[position], k0, k1)
                ]
                if bad:
                    tally.fail("fanout", f"source {source}: {len(bad)} wrong values")
            elif kind == "nearest":
                source, k = read[1]
                if not _nearest_ok(history, state, source, read[2], k0, k1, k):
                    tally.fail("nearest", f"source {source}: {read[2]!r}")
