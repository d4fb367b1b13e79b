"""Bit pin of the per-point analyses.

One seeded sample of every per-point operation (the family verdicts, the
assisted cost, the preserving cost, the distinguishability bound, pointer
spectra and probabilistic LOCC conversion) is hashed: floats by ``.hex()``,
arrays by ``tobytes()``, so a move in any last bit changes the digest. The
digest was recorded with the probability checks on numpy arrays and the bound
taken member by member; a deliberate change of any output must update it and
say why in CHANGES.md.
"""

import hashlib

import numpy as np

from entdisc import (
    BellFamily,
    Ensemble,
    ProbVector,
    PureState,
    assisted_alpha2_max,
    bell_states,
    closed_form_lhs,
    distinguishability_bound,
    entropy_bits,
    geometric_measure,
    global_robustness,
    locc_ensemble_feasible,
    majorizes,
    mix,
    perfect_discrimination_feasible,
    pointer_state,
    preserve_cost,
    preserve_spectrum,
    reduced_spectrum,
    relative_entropy_ent,
    three_state_feasible,
)

POINT_DIGEST = "43ada18a28fa5f6938e62308d251a7763880904a2ec6fb568e3271c454ff9796"


def _priors(rng, n):
    return [float(v) for v in rng.dirichlet(np.ones(n))]


def _family(rng):
    return BellFamily(float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.5, 1.0)))


def _random_states(rng, size, dim):
    states = []
    for _ in range(size):
        v = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
        states.append(PureState(v / np.linalg.norm(v), dim, dim))
    return states


def _bound_fields(bound):
    return [bound.n_robustness.hex(), bound.n_rel_entropy.hex(), bound.n_geometric.hex()]


def point_outputs(seed=2024, points=40):
    """The outputs of every per-point operation on a seeded sample, as strings."""
    rng = np.random.default_rng(seed)
    # At (0.8682, 0.9925) the robustness squares a float whose ** 2 (C pow) and x * x differ in the last bit.
    corners = [BellFamily(1.0, 1.0), BellFamily(0.5, 0.5), BellFamily(0.75, 0.75), BellFamily(0.8682, 0.9925)]
    families = corners + [_family(rng) for _ in range(points)]
    out = []
    for family in families:
        probs = _priors(rng, 4)
        which = [int(i) for i in rng.permutation(4)[:3]]
        report = assisted_alpha2_max(family)
        out += [
            str(perfect_discrimination_feasible(family)),
            str(perfect_discrimination_feasible(family, probs)),
            closed_form_lhs(family).hex(),
            closed_form_lhs(family, probs).hex(),
            str(three_state_feasible(family, which)),
            str(three_state_feasible(family, which, _priors(rng, 3))),
            report.alpha2_max.hex(),
            report.cost_ebits.hex(),
            report.first_sum_bound.hex(),
            preserve_cost(family).hex(),
            preserve_cost(family, probs).hex(),
            preserve_spectrum(family, probs).entries.tobytes().hex(),
            *_bound_fields(distinguishability_bound(Ensemble(tuple(zip(probs, family.states()))))),
            *(f(s).hex() for s in family.states()[1:3] for f in (global_robustness, geometric_measure)),
        ]
    for size in (1, 2, 3, 4) * 5:
        for dim in (2, 3):
            states = _random_states(rng, size, dim)
            out += _bound_fields(distinguishability_bound(Ensemble(tuple(zip(_priors(rng, size), states)))))
        states = _random_states(rng, size, 2)
        probs = _priors(rng, size)
        pointers = bell_states()[:size]
        lam = reduced_spectrum(pointer_state(Ensemble(tuple(zip(probs, states))), pointers))
        target = mix([(p, reduced_spectrum(ptr)) for p, ptr in zip(probs, pointers)])
        out += [lam.entries.tobytes().hex(), target.entries.tobytes().hex(), str(majorizes(lam, target))]
    for dim in (2, 3, 8, 9, 12):
        for rank in sorted({1, 2, dim - 1, dim}):
            # Zero rows give exact zeros in the spectrum; full-rank members ride along in the same ensemble.
            states = []
            for r in (rank, dim, rank):
                m = np.zeros((dim, dim))
                m[:r] = rng.standard_normal((r, dim))
                states.append(PureState.from_matrix(m / np.linalg.norm(m)))
            out += _bound_fields(distinguishability_bound(Ensemble(tuple(zip(_priors(rng, 3), states)))))
            measures = (global_robustness, relative_entropy_ent, geometric_measure)
            out += [v.hex() for s in states for v in (*(f(s) for f in measures), entropy_bits(reduced_spectrum(s)))]
    for dim in range(2, 65):
        weights = _priors(rng, 1 + dim % 3)
        targets = [(w, ProbVector(rng.dirichlet(np.ones(dim)).tolist())) for w in weights]
        source = ProbVector(rng.dirichlet(np.ones(dim)).tolist())
        mixed = mix(targets)
        near = ProbVector(0.5 * mixed.entries + 0.5 / dim)
        out += [
            source.entries.tobytes().hex(),
            mixed.entries.tobytes().hex(),
            str(locc_ensemble_feasible(source, targets)),
            str(locc_ensemble_feasible(near, targets)),
        ]
    return out


def test_point_outputs_keep_every_bit():
    digest = hashlib.sha256("\n".join(point_outputs()).encode()).hexdigest()
    assert digest == POINT_DIGEST
