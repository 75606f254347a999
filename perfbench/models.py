"""Model inputs and builds: the fit half of the benchmark.

Two input sets, both generated from the workload seed:

* :class:`ServingNetwork` — the 5,000-host network the serving
  workloads answer queries about. Hosts sit in clusters on a plane;
  the true RTT is propagation plus a per-host access delay in each
  direction, so it is asymmetric. IDES only sees the landmark
  measurements (with 5% noise); the truth of any host pair can be
  computed on demand, which is what the held-out errors use.
* :class:`P2PSimInputs` — the paper's Table-1 / Figure-7 inputs: the
  synthetic P2PSim-1143 subset with 20 landmarks, a Figure-7 mask
  that hides 30% of the landmarks from each host, and NLANR-110.

Like the paper's measured data sets, the networks themselves are fixed
(one canonical generation seed); the workload seed draws what varies
between runs of one deployment: the measurement noise and the
Figure-7 mask here, the query streams in :mod:`perfbench.serving`.
A seed that also redrew the networks would move the Eq. 10 errors by
up to 25% from seed to seed (landmark placement luck), far more than
any solver change the error metrics exist to catch.

Each build times the library's public fit calls one by one (``stages``)
and checks its answers against references the benchmark computes
itself: an exact SVD, and per-host least squares or NNLS solves
against the fitted landmark vectors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from repro.core import NMFFactorizer, SVDFactorizer, relative_errors
from repro.datasets import load_dataset, split_landmarks
from repro.datasets.registry import clear_cache
from repro.evaluation.experiments.common import p2psim_eval_subset
from repro.ides import IDESSystem
from repro.linalg.least_squares import mask_row_groups
from repro.serving import DistanceService

DIMENSION = 10
N_LANDMARKS = 20
N_SERVING_HOSTS = 5000
#: Figure 7: the share of landmarks each host does not observe.
HIDDEN_LANDMARK_SHARE = 0.3
#: Figure-7 masks drawn per fit-p2psim run.
MASK_DRAWS = 4
#: Landmark measurement campaigns per serving run.
CAMPAIGNS = 5
#: Generation seed of the fixed networks and landmark split.
NETWORK_SEED = 0
#: Held-out host pairs scored on the serving network.
HELD_OUT_PAIRS = 20000
#: Export target: the serving tier's in-process sharded store.
EXPORT_SHARDS = 2
#: A build's Eq. 10 percentiles may differ from the reference by this
#: share; a solver that trades accuracy for speed beyond it fails.
RELERR_TOLERANCE = 0.02
#: An NMF fit is a local optimum; its residual may exceed the optimal
#: (SVD) residual of the same rank by at most this factor.
NMF_RESIDUAL_LIMIT = 1.5


def eq10(true: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """The paper's modified relative error, computed independently of
    the library (denominator floored at 1e-6 of the mean distance)."""
    floor = 1e-6 * float(true[true > 0].mean())
    return np.abs(true - estimate) / np.maximum(np.minimum(true, estimate), floor)


def off_diagonal(matrix: np.ndarray) -> np.ndarray:
    return matrix[~np.eye(matrix.shape[0], dtype=bool)]


def relerr_percentiles(errors: np.ndarray) -> tuple[float, float]:
    return float(np.percentile(errors, 50)), float(np.percentile(errors, 90))


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #


class ServingNetwork:
    """The fixed synthetic network of :data:`N_SERVING_HOSTS` hosts, as
    measured by the ``draw``-th landmark measurement campaign of ``seed``.

    Ids ``0 .. N_LANDMARKS-1`` are the landmarks; the rest are ordinary
    hosts placed by IDES.
    """

    def __init__(self, seed: int, draw: int = 0, n_hosts: int = N_SERVING_HOSTS):
        rng = np.random.default_rng(NETWORK_SEED)
        centers = rng.uniform(0.0, 10000.0, size=(24, 2))  # km
        weights = rng.dirichlet(np.full(24, 0.7))
        cluster = rng.choice(24, size=n_hosts, p=weights)
        self.positions = centers[cluster] + rng.normal(0.0, 400.0, (n_hosts, 2))
        self.access_out = rng.lognormal(np.log(4.0), 0.6, n_hosts)  # ms
        self.access_in = rng.lognormal(np.log(4.0), 0.6, n_hosts)
        self.n_hosts = n_hosts
        landmarks = np.arange(N_LANDMARKS)
        ordinary = np.arange(N_LANDMARKS, n_hosts)
        sources = rng.integers(N_LANDMARKS, n_hosts, HELD_OUT_PAIRS)
        destinations = rng.integers(N_LANDMARKS, n_hosts - 1, HELD_OUT_PAIRS)
        destinations += destinations >= sources  # never a self pair
        self.held_out = (sources, destinations)
        measurement = np.random.default_rng([seed, 1, draw])

        def noise(shape):
            return measurement.lognormal(0.0, 0.05, shape)

        self.landmark_matrix = self.truth_matrix(landmarks, landmarks) * noise(
            (N_LANDMARKS, N_LANDMARKS)
        )
        np.fill_diagonal(self.landmark_matrix, 0.0)
        self.out_distances = self.truth_matrix(ordinary, landmarks) * noise(
            (ordinary.size, N_LANDMARKS)
        )
        self.in_distances = self.truth_matrix(landmarks, ordinary) * noise(
            (N_LANDMARKS, ordinary.size)
        )

    def truth(self, sources, destinations) -> np.ndarray:
        """True RTT (ms) of aligned host pairs."""
        sources = np.asarray(sources)
        destinations = np.asarray(destinations)
        span = np.linalg.norm(
            self.positions[sources] - self.positions[destinations], axis=-1
        )
        return span / 100.0 + self.access_out[sources] + self.access_in[destinations]

    def truth_matrix(self, sources, destinations) -> np.ndarray:
        return self.truth(
            np.asarray(sources)[:, None], np.asarray(destinations)[None, :]
        )


@dataclass
class P2PSimInputs:
    """The fit workload's inputs for one seed: the fixed data sets and
    :data:`MASK_DRAWS` Figure-7 masks that successive builds cycle
    through (the placement work depends on the mask's patterns, so a
    run averages over several)."""

    p2psim: np.ndarray
    nlanr: np.ndarray
    split: object
    masks: list

    @classmethod
    def generate(cls, seed: int) -> "P2PSimInputs":
        clear_cache()  # every set-up pays for generation, not a cache hit
        p2psim = p2psim_eval_subset(seed=NETWORK_SEED)
        nlanr = load_dataset("nlanr", seed=NETWORK_SEED)
        split = split_landmarks(p2psim, N_LANDMARKS, seed=NETWORK_SEED)
        rng = np.random.default_rng([seed, 2])
        hidden = int(round(HIDDEN_LANDMARK_SHARE * N_LANDMARKS))
        n_hosts = split.out_distances.shape[0]
        masks = []
        for _ in range(MASK_DRAWS):
            order = np.argsort(rng.random((n_hosts, N_LANDMARKS)), axis=1)
            mask = np.ones((n_hosts, N_LANDMARKS), dtype=bool)
            np.put_along_axis(mask, order[:, :hidden], False, axis=1)
            masks.append(mask)
        return cls(p2psim.matrix, nlanr.matrix, split, masks)


# ---------------------------------------------------------------------- #
# builds
# ---------------------------------------------------------------------- #


@dataclass
class Build:
    """Timings and outputs of one model build."""

    #: Seconds per fit stage call, by per-layer metric name.
    stages: dict = field(default_factory=dict)
    #: ``(stage, start, end)`` of every stage call, in call order.
    spans: list = field(default_factory=list)
    model_fit_s: float = 0.0
    ides_fit_s: float = 0.0
    #: The Figure-7 mask a fit-p2psim build placed hosts under.
    mask_index: int = 0
    #: Landmark fit + host placement seconds, per IDES variant.
    ides_build_s: dict = field(default_factory=dict)
    nmf_iterations: int = 0
    systems: dict = field(default_factory=dict)
    services: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)

    def stage(self, name: str, function, *args, **kwargs):
        started = time.perf_counter()
        result = function(*args, **kwargs)
        finished = time.perf_counter()
        self.stages[name] = self.stages.get(name, 0.0) + finished - started
        self.spans.append((name, started, finished))
        return result


def _ides_builds(
    build: Build,
    landmark_matrix: np.ndarray,
    out_distances: np.ndarray,
    in_distances: np.ndarray,
    mask: np.ndarray | None,
    host_ids: list,
    landmark_ids: list,
) -> None:
    """IDES/SVD and IDES/NMF (non-negative hosts), each exported into
    a sharded :class:`DistanceService`."""
    started = time.perf_counter()
    for method, stage in (("svd", "ides.place_hosts_s.ls"), ("nmf", "ides.place_hosts_s.nnls")):
        system = IDESSystem(DIMENSION, method=method, nonnegative_hosts=method == "nmf")
        fitted = time.perf_counter()
        build.stage("ides.landmark_fit_s", system.fit_landmarks, landmark_matrix)
        build.stage(stage, system.place_hosts, out_distances, in_distances, observation_mask=mask)
        build.ides_build_s[method] = time.perf_counter() - fitted
        build.systems[method] = system
        build.services[method] = build.stage(
            "service.export_s",
            DistanceService.from_ides,
            system,
            host_ids=host_ids,
            landmark_ids=landmark_ids,
            n_shards=EXPORT_SHARDS,
        )
    build.ides_fit_s = time.perf_counter() - started


def build_serving_models(network: ServingNetwork) -> Build:
    """Build the model the serving workloads serve (IDES/SVD vectors),
    plus IDES/NMF for its held-out error."""
    build = Build()
    _ides_builds(
        build,
        network.landmark_matrix,
        network.out_distances,
        network.in_distances,
        None,
        host_ids=list(range(N_LANDMARKS, network.n_hosts)),
        landmark_ids=list(range(N_LANDMARKS)),
    )
    # The served model's construction: landmark fit + every placement
    # (the paper's Table-1 measure) of the IDES/SVD model.
    build.model_fit_s = build.ides_build_s["svd"]
    return build


def build_p2psim_models(inputs: P2PSimInputs, mask_index: int) -> Build:
    """One fit-p2psim build: the Table-1 full-matrix models, then both
    IDES variants with one of the Figure-7 masks, exported."""
    build = Build(mask_index=mask_index)
    started = time.perf_counter()
    build.models["svd"] = build.stage(
        "linalg.svd_s", SVDFactorizer(DIMENSION).fit, inputs.p2psim
    )
    build.models["nmf"] = build.stage(
        "linalg.nmf_s", NMFFactorizer(DIMENSION).fit, inputs.nlanr
    )
    build.model_fit_s = time.perf_counter() - started
    build.nmf_iterations = int(build.models["nmf"].metadata["iterations"])
    split = inputs.split
    _ides_builds(
        build,
        split.landmark_matrix,
        split.out_distances,
        split.in_distances,
        inputs.masks[mask_index],
        host_ids=[int(i) for i in split.ordinary_indices],
        landmark_ids=[int(i) for i in split.landmark_indices],
    )
    return build


def mask_groups(mask: np.ndarray) -> int:
    """Distinct observation patterns host placement solves for."""
    return len(mask_row_groups(mask))


# ---------------------------------------------------------------------- #
# references and checks
# ---------------------------------------------------------------------- #


def reference_placement(
    landmark_out: np.ndarray,
    landmark_in: np.ndarray,
    out_distances: np.ndarray,
    in_distances: np.ndarray,
    mask: np.ndarray | None,
    nonnegative: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-host least squares (or NNLS) placement, host by host (one
    multi-right-hand-side solve for unmasked least squares)."""
    if mask is None and not nonnegative:
        return (
            np.linalg.lstsq(landmark_in, out_distances.T, rcond=None)[0].T,
            np.linalg.lstsq(landmark_out, in_distances, rcond=None)[0].T,
        )
    n_hosts = out_distances.shape[0]
    if mask is None:
        mask = np.ones(out_distances.shape, dtype=bool)
    outgoing = np.empty((n_hosts, landmark_out.shape[1]))
    incoming = np.empty_like(outgoing)
    for host in range(n_hosts):
        seen = mask[host]
        for target, basis, measured in (
            (outgoing, landmark_in[seen], out_distances[host, seen]),
            (incoming, landmark_out[seen], in_distances[seen, host]),
        ):
            if nonnegative:
                target[host] = nnls(basis, measured)[0]
            else:
                target[host] = np.linalg.lstsq(basis, measured, rcond=None)[0]
    return outgoing, incoming


def _svd_landmarks(landmark_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u, s, vt = np.linalg.svd(landmark_matrix)
    root = np.sqrt(s[:DIMENSION])
    return u[:, :DIMENSION] * root, vt[:DIMENSION].T * root


def _nmf_residual_ok(matrix, outgoing, incoming) -> bool:
    """Non-negative factors whose residual is within
    :data:`NMF_RESIDUAL_LIMIT` of the optimal rank-d residual."""
    s = np.linalg.svd(matrix, compute_uv=False)
    optimal = float(np.sqrt((s[DIMENSION:] ** 2).sum()))
    residual = float(np.linalg.norm(matrix - outgoing @ incoming.T))
    nonnegative = outgoing.min() >= 0 and incoming.min() >= 0
    return bool(nonnegative and residual <= NMF_RESIDUAL_LIMIT * optimal + 1e-9)


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= RELERR_TOLERANCE * abs(reference) + 1e-9


@dataclass
class Accuracy:
    """Eq. 10 percentiles of one build, as the library computes them."""

    model_p50: float = 0.0
    ides_svd: tuple = (0.0, 0.0)
    ides_nmf: tuple = (0.0, 0.0)

    @classmethod
    def median(cls, accuracies: list) -> "Accuracy":
        """Each percentile's median over several builds."""
        def middle(values):
            return float(np.median(values))

        return cls(
            model_p50=middle([a.model_p50 for a in accuracies]),
            ides_svd=tuple(map(middle, zip(*(a.ides_svd for a in accuracies)))),
            ides_nmf=tuple(map(middle, zip(*(a.ides_nmf for a in accuracies)))),
        )


class P2PSimReference:
    """The benchmark's own answers for one fit-p2psim input set."""

    def __init__(self, inputs: P2PSimInputs):
        self.inputs = inputs
        u, s, vt = np.linalg.svd(inputs.p2psim)
        rebuilt = (u[:, :DIMENSION] * s[:DIMENSION]) @ vt[:DIMENSION]
        self.model_p50 = float(np.median(off_diagonal(eq10(inputs.p2psim, rebuilt))))
        split = inputs.split
        landmark_out, landmark_in = _svd_landmarks(split.landmark_matrix)
        self.ides_svd = []
        for mask in inputs.masks:
            out, inc = reference_placement(
                landmark_out, landmark_in, split.out_distances, split.in_distances,
                mask, nonnegative=False,
            )
            self.ides_svd.append(relerr_percentiles(
                off_diagonal(eq10(split.ordinary_matrix, out @ inc.T))
            ))
        #: IDES/NMF's reference depends on the landmark factors the
        #: library found (a local optimum); computed per mask and factors.
        self._nmf_cache: dict = {}

    def ides_nmf(self, system, mask_index: int) -> tuple[float, float]:
        landmark_out, landmark_in = system.landmark_vectors()
        key = (mask_index, landmark_out.tobytes() + landmark_in.tobytes())
        if key not in self._nmf_cache:
            split = self.inputs.split
            out, inc = reference_placement(
                landmark_out, landmark_in, split.out_distances,
                split.in_distances, self.inputs.masks[mask_index], nonnegative=True,
            )
            self._nmf_cache[key] = relerr_percentiles(
                off_diagonal(eq10(split.ordinary_matrix, out @ inc.T))
            )
        return self._nmf_cache[key]

    def check(self, build: Build) -> tuple[Accuracy, list[str]]:
        """Score a build with the library's Eq. 10 and compare."""
        inputs, split = self.inputs, self.inputs.split
        problems = []
        accuracy = Accuracy()
        accuracy.model_p50 = float(np.median(relative_errors(
            inputs.p2psim, build.models["svd"].predict_matrix()
        )))
        if not close(accuracy.model_p50, self.model_p50):
            problems.append(
                f"SVD model relerr p50 {accuracy.model_p50:.5f} != "
                f"reference {self.model_p50:.5f}"
            )
        nmf = build.models["nmf"]
        if not _nmf_residual_ok(inputs.nlanr, nmf.outgoing, nmf.incoming):
            problems.append("NMF model residual or sign out of bounds")
        for method, reference in (
            ("svd", self.ides_svd[build.mask_index]),
            ("nmf", self.ides_nmf(build.systems["nmf"], build.mask_index)),
        ):
            system = build.systems[method]
            percentiles = relerr_percentiles(
                relative_errors(split.ordinary_matrix, system.predict_matrix())
            )
            setattr(accuracy, f"ides_{method}", percentiles)
            if not all(map(close, percentiles, reference)):
                problems.append(
                    f"IDES/{method.upper()} relerr p50/p90 {percentiles} != "
                    f"reference {reference}"
                )
            problems.extend(_export_problems(
                build.services[method], system, split.ordinary_indices
            ))
        if not _nmf_residual_ok(split.landmark_matrix, *build.systems["nmf"].landmark_vectors()):
            problems.append("IDES/NMF landmark residual or sign out of bounds")
        return accuracy, problems


def _export_problems(service, system, host_ids, samples: int = 512) -> list[str]:
    """The exported service must answer what the fitted vectors say."""
    out, inc = system.host_vectors()
    rng = np.random.default_rng(0)
    rows = rng.integers(0, out.shape[0], samples)
    cols = rng.integers(0, out.shape[0], samples)
    ids = host_ids
    served = service.engine.pairs([int(ids[r]) for r in rows], [int(ids[c]) for c in cols])
    expected = np.einsum("ij,ij->i", out[rows], inc[cols])
    if not np.allclose(served, expected, rtol=1e-9, atol=1e-9):
        return [f"exported {service!r} disagrees with the fitted vectors"]
    return []


class ServingReference:
    """The benchmark's own answers for the serving network's build."""

    def __init__(self, network: ServingNetwork):
        self.network = network
        landmark_out, landmark_in = _svd_landmarks(network.landmark_matrix)
        out, inc = reference_placement(
            landmark_out, landmark_in, network.out_distances,
            network.in_distances, None, nonnegative=False,
        )
        self.ides_svd = self._held_out(out, inc, eq10)
        self._nmf_cache: dict = {}

    def _held_out(self, out, inc, score) -> tuple[float, float]:
        sources, destinations = self.network.held_out
        rows, cols = sources - N_LANDMARKS, destinations - N_LANDMARKS
        predicted = np.einsum("ij,ij->i", out[rows], inc[cols])
        truth = self.network.truth(sources, destinations)
        return relerr_percentiles(score(truth[None, :], predicted[None, :]).ravel())

    def check(self, build: Build) -> tuple[Accuracy, list[str]]:
        network = self.network
        problems = []
        accuracy = Accuracy()
        for method in ("svd", "nmf"):
            system = build.systems[method]
            if method == "svd":
                reference = self.ides_svd
            else:
                landmark_out, landmark_in = system.landmark_vectors()
                key = landmark_out.tobytes() + landmark_in.tobytes()
                if key not in self._nmf_cache:
                    out, inc = reference_placement(
                        landmark_out, landmark_in, network.out_distances,
                        network.in_distances, None, nonnegative=True,
                    )
                    self._nmf_cache[key] = self._held_out(out, inc, eq10)
                reference = self._nmf_cache[key]
            percentiles = self._held_out(
                *system.host_vectors(),
                lambda t, e: relative_errors(t, e, exclude_diagonal=False),
            )
            setattr(accuracy, f"ides_{method}", percentiles)
            if not all(map(close, percentiles, reference)):
                problems.append(
                    f"IDES/{method.upper()} relerr p50/p90 {percentiles} != "
                    f"reference {reference}"
                )
            problems.extend(_export_problems(
                build.services[method], system,
                np.arange(N_LANDMARKS, network.n_hosts),
            ))
        return accuracy, problems

    @staticmethod
    def served_vectors(build: Build) -> tuple[np.ndarray, np.ndarray]:
        """The IDES/SVD vectors of every host, in id order."""
        system = build.systems["svd"]
        landmark_out, landmark_in = system.landmark_vectors()
        host_out, host_in = system.host_vectors()
        return (
            np.ascontiguousarray(np.vstack([landmark_out, host_out])),
            np.ascontiguousarray(np.vstack([landmark_in, host_in])),
        )
