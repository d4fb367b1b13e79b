import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from entdisc import (
    DEFAULT_TOL,
    BellFamily,
    Ensemble,
    ProbVector,
    ValidationError,
    avg_entanglement,
    bell_states,
    binary_entropy,
    entropy_bits,
    majorizes,
    mix,
    perfect_discrimination_feasible,
    tensor,
    three_state_feasible,
)
from entdisc.spectra import _is_real, check_probabilities, check_tol
from helpers import majorized_image, random_prob_vector


class TestProbVector:
    def test_sorts_descending_on_construction(self):
        v = ProbVector([0.1, 0.6, 0.3])
        assert np.array_equal(v.entries, [0.6, 0.3, 0.1])

    def test_clamps_tiny_negatives(self):
        v = ProbVector([1.0 + 2e-10, -2e-10])
        assert v.entries[1] == 0.0

    def test_rejects_large_negatives(self):
        with pytest.raises(ValidationError):
            ProbVector([1.1, -0.1])

    def test_iterates_and_prints_sorted_entries(self):
        v = ProbVector([0.25, 0.75])
        assert list(v) == [0.75, 0.25]
        assert repr(v) == "ProbVector([0.75, 0.25])"

    def test_rejects_non_numbers(self):
        with pytest.raises(ValidationError, match="must be numbers"):
            check_probabilities(["x"])

    @pytest.mark.parametrize(
        "bad",
        [
            [True, False],
            (False, True),
            np.array([True, False]),
            [np.True_, np.False_],
            [0.0, True],
            [0.5, 0.5, np.False_],
            [True],
        ],
    )
    def test_rejects_booleans(self, bad):
        # [True, False] built [1, 0]
        for build in (ProbVector, check_probabilities):
            with pytest.raises(ValidationError, match="^probabilities must be numbers, not booleans$"):
                build(bad)

    def test_rejects_boolean_priors_and_weights(self):
        family = BellFamily(0.9, 0.8)
        bools = [True, False, False, False]
        for call in (
            lambda: Ensemble(tuple(zip(bools, family.states()))),
            lambda: mix([(w, ProbVector([1.0])) for w in bools]),
            lambda: perfect_discrimination_feasible(family, bools),
            lambda: three_state_feasible(family, (0, 1, 2), bools[:3]),
            lambda: avg_entanglement(family, bools),
        ):
            with pytest.raises(ValidationError, match="^probabilities must be numbers, not booleans$"):
                call()

    @pytest.mark.parametrize(
        "bad",
        [
            ["0.5", "0.5"],
            [b"0.25"] * 4,
            [0.5, "0.5"],
            [0.5, np.str_("0.5")],
            np.array(["0.5", "0.5"]),
            np.array([b"0.5", b"0.5"]),
            np.array([0.5, "0.5"], dtype=object),
            np.array([0.25 + 1j] * 4),
            [np.complex128(0.25 + 1j)] * 4,
            [np.complex128(1 + 2j)],
            np.array([np.complex128(0.25 + 1j)] * 4, dtype=object),
            np.array([1, 0], dtype="m8[s]"),
            np.array([1, 0], dtype="M8[s]"),
        ],
    )
    def test_rejects_strings_and_bytes(self, bad):
        # numpy parses numeric text, so ["0.5", "0.5"] built [0.5, 0.5] while binary_entropy("0.5") refused it;
        # it casts complex and time values to their real part or count, with at most a ComplexWarning
        text = any(isinstance(v, (str, bytes)) for v in np.asarray(bad, dtype=object).flat)
        reason = "numbers, not strings or bytes" if text else "real numbers, not complex or time values"
        states = bell_states()
        for build in (ProbVector, check_probabilities, lambda priors: Ensemble(tuple(zip(priors, states)))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match=f"^probabilities must be {reason}$"):
                    build(bad)

    def test_rejects_string_priors_and_weights(self):
        family = BellFamily(0.9, 0.8)
        text = ["0.25"] * 4
        for call in (
            lambda: Ensemble(tuple(zip(text, family.states()))),
            lambda: mix([(w, ProbVector([1.0])) for w in text]),
            lambda: perfect_discrimination_feasible(family, text),
            lambda: three_state_feasible(family, (0, 1, 2), ["0.5", "0.25", "0.25"]),
            lambda: avg_entanglement(family, text),
        ):
            with pytest.raises(ValidationError, match="^probabilities must be numbers, not strings or bytes$"):
                call()

    @pytest.mark.parametrize("bad", [None, Fraction(1, 2), Decimal("0.5"), 10**20, 10**400],
                             ids=["None", "Fraction", "Decimal", "10**20", "10**400"])
    @pytest.mark.parametrize("container", [list, lambda values: np.array(values, dtype=object)],
                             ids=["list", "object-array"])
    def test_rejects_objects_and_integers_beyond_64_bits(self, bad, container):
        # numpy holds each of these as an object: None was called non-finite, a Fraction or Decimal 1/2 built
        # [0.5, 0.5], 10**20 exceeded 1, and 10**400 escaped as a raw OverflowError
        priors = [bad, 0.5]
        states = bell_states()[:2]
        builds = [ProbVector, check_probabilities]
        if container is list:
            builds += [lambda p: Ensemble(tuple(zip(p, states))), lambda p: mix([(w, ProbVector([1.0])) for w in p])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in builds:
                with pytest.raises(ValidationError, match="^probabilities must be numbers, not None, other objects or "
                                                          "integers beyond 64 bits$"):
                    build(container(priors))

    def test_text_that_numpy_cannot_parse_keeps_its_reason(self):
        with pytest.raises(ValidationError, match="^probabilities must be numbers: could not convert string"):
            check_probabilities(["abc", 0.5])

    def test_rejects_nested_lists(self):
        with pytest.raises(ValidationError, match="^probabilities must be a flat list of numbers$"):
            ProbVector([[0.5], [0.5]])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            ProbVector([0.5, 0.4])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            ProbVector([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            ProbVector([np.nan, 1.0])
        for bad in ([np.inf, 0.0], [-np.inf, 1.0], [np.nan]):
            with pytest.raises(ValidationError):
                ProbVector(bad)

    def test_entries_are_read_only(self):
        v = ProbVector([0.5, 0.5])
        with pytest.raises(ValueError):
            v.entries[0] = 0.9

    def test_dim_and_len(self):
        v = ProbVector([0.2, 0.3, 0.5])
        assert v.dim == 3 and len(v) == 3


# One sample of each type numpy reads differently, the ints at and beyond the edges of int64 and uint64.
KIND_SAMPLES = [True, np.True_, 1, 10**20, 10**400, 1.5, np.float32(1.5), 1j, np.complex64(1j), "0.5", b"0.5", None,
                np.datetime64(1, "s"), -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, np.float16(0.5), np.uint64(5)]


def test_one_number_rule_matches_numpy():
    # _is_real must accept exactly the non-bool values numpy holds as kind i, u or f, the kinds _kinds reads
    for value in KIND_SAMPLES:
        assert _is_real(value) == (np.asarray(value).dtype.kind in "iuf"), value


@pytest.mark.parametrize("value, shown", [pytest.param(10**5000, "<int>", id="10**5000"),
                                          pytest.param("9" * 5000, "<str>", id="5000-char-str"),
                                          (None, "<NoneType>"), (True, "<bool>"), (-0.5, "-0.5")])
def test_refusals_name_a_non_number_by_its_type(value, shown):
    # the refused value's repr made the line as long as the value, and past 4300 digits raised a raw ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as caught:
            check_tol(value)
        assert str(caught.value) == f"tolerance must be a finite number >= 0, got {shown}"
        if shown != "-0.5":
            with pytest.raises(ValidationError) as caught:
                binary_entropy(value)
            assert str(caught.value) == f"binary entropy argument {shown} is not a number"


def array_route(values):
    """Reference checks on numpy arrays: np.asarray, np.clip, ndarray.sum(), then np.sort(kind="stable")[::-1].

    Returns (checked entries in the given order, sorted entries) or the reason for rejecting, for finite flat input.
    """
    arr = np.asarray(values, dtype=float)
    low, high = float(arr.min()), float(arr.max())
    if low < 0.0:
        if low < -DEFAULT_TOL:
            return f"probability {low:.3e} is negative beyond tolerance {DEFAULT_TOL:.0e}"
        arr = np.clip(arr, 0.0, None)
    if high > 1.0 + DEFAULT_TOL:
        return f"probability {high!r} exceeds 1 beyond tolerance {DEFAULT_TOL:.0e}"
    total = float(arr.sum())
    if not abs(total - 1.0) <= DEFAULT_TOL:
        return f"probabilities sum to {total!r}, expected 1 within {DEFAULT_TOL:.0e}"
    return arr, np.sort(arr, kind="stable")[::-1]


def oracle_inputs(seed=29):
    """Seeded probability lists of length 1-64: ties, signed zeros, negatives near -DEFAULT_TOL, totals at 1 +- DEFAULT_TOL."""
    rng = np.random.default_rng(seed)
    for n in range(1, 65):
        base = rng.dirichlet(np.ones(n))
        tied = rng.integers(1, 4, n).astype(float)
        tied /= tied.sum()
        cases = [base, tied, np.round(base, 2)]
        for k in range(4):
            v = base.copy()
            zeros = rng.choice(n, size=min(n - 1, 1 + k), replace=False)
            v[zeros] = 0.0
            v /= v.sum()
            signed = v.copy()
            signed[zeros[: 1 + k // 2]] = -0.0
            cases.append(signed)
            if n > 2 and k:
                # A negative beside the -0.0 entries: within tolerance for k < 3, beyond it for k = 3.
                noisy = signed.copy()
                noisy[zeros[-1]] = -DEFAULT_TOL * (2.0 if k == 3 else rng.uniform(0.0, 1.0))
                cases.append(noisy)
        # A clamped negative moves the total by half the tolerance, so the sum must be taken after the clamp.
        negative = np.concatenate([[-0.5 * DEFAULT_TOL], base[1:]]) if n > 1 else base
        for start in (base, negative):
            for edge in (1.0 - DEFAULT_TOL, 1.0 + DEFAULT_TOL):
                for ulps in range(-3, 4):
                    v = start.copy()
                    v[-1] += edge - v.sum()
                    v[-1] += ulps * np.spacing(1.0)
                    cases.append(v)
        for v in cases:
            yield v
            yield v.tolist()


class TestArrayRouteOracle:
    """check_probabilities and ProbVector check Python floats; every byte and message must be the array route's."""

    def test_same_bytes_verdicts_and_messages(self):
        outcomes = {"accepted": 0, "rejected": 0, "signed_zero": 0}
        for values in oracle_inputs():
            expected = array_route(values)
            if isinstance(expected, str):
                outcomes["rejected"] += 1
                for check in (check_probabilities, ProbVector):
                    with pytest.raises(ValidationError) as info:
                        check(values)
                    assert str(info.value) == expected
                continue
            outcomes["accepted"] += 1
            outcomes["signed_zero"] += bool(np.signbit(expected[1]).any())
            checked = check_probabilities(values)
            assert type(checked) is list and all(type(v) is float for v in checked)
            assert np.array(checked).tobytes() == expected[0].tobytes()
            entries = ProbVector(values).entries
            assert entries.tobytes() == expected[1].tobytes() and not entries.flags.writeable
        assert min(outcomes.values()) > 0, outcomes


def cumsum_majorizes(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    n = max(x.size, y.size)
    cx = np.cumsum(np.concatenate([x, np.zeros(n - x.size)]))
    cy = np.cumsum(np.concatenate([y, np.zeros(n - y.size)]))
    return bool(np.all(cx[:-1] <= cy[:-1] + tol))


class TestMajorizes:
    def test_uniform_majorized_by_peaked(self):
        assert majorizes(ProbVector([0.5, 0.5]), ProbVector([1.0, 0.0]))

    def test_first_partial_sum_violation(self):
        assert not majorizes(ProbVector([0.7, 0.3]), ProbVector([0.6, 0.4]))

    def test_padding_plus_reflexivity(self):
        assert majorizes(ProbVector([0.5, 0.5]), ProbVector([0.5, 0.5, 0.0, 0.0]))
        assert majorizes(ProbVector([0.5, 0.5, 0.0, 0.0]), ProbVector([0.5, 0.5]))

    def test_tolerance_override(self):
        x, y = ProbVector([0.61, 0.39]), ProbVector([0.6, 0.4])
        assert not majorizes(x, y)
        assert majorizes(x, y, tol=0.02)

    def test_total_is_not_compared(self):
        # the last partial sum is the total, 1 on both sides by normalization;
        # a spectrum whose total rounds one ulp above 1 used to fail at tol 0
        x = ProbVector([0.25 + 2.0**-52, 0.25, 0.25, 0.25])
        assert np.cumsum(x.entries)[-1] > 1.0
        assert majorizes(x, ProbVector([0.5, 0.5]), tol=0.0)
        assert not majorizes(ProbVector([0.5 + 2.0**-52, 0.5 - 2.0**-52]), ProbVector([0.5, 0.5]), tol=0.0)

    def test_verdict_bits_match_a_cumsum_oracle(self):
        # oracle: np.cumsum over the zero-padded entries, the last sum skipped; the cases include unequal
        # lengths, x = y, and first partial sums one ulp either side of the bound at tol 0 and the default tol
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(400):
            dim = int(rng.integers(2, 65))
            y = ProbVector(0.5 * rng.dirichlet(np.ones(dim)) + 0.5 / dim)
            near = []
            for tol in (0.0, DEFAULT_TOL):
                top = y.entries[0] + tol
                for x0 in (np.nextafter(top, 0.0), top, np.nextafter(top, 1.0)):
                    bumped = y.entries.copy()
                    bumped[-1] -= x0 - bumped[0]
                    bumped[0] = x0
                    near.append(ProbVector(bumped))
            cases = [(y, y), (ProbVector(y.entries), y), (random_prob_vector(rng, int(rng.integers(1, 65))), y)]
            cases += [(x, y) for x in near] + [(y, x) for x in near]
            for x, y_ in cases:
                for tol in (0.0, DEFAULT_TOL):
                    expected = cumsum_majorizes(x.entries, y_.entries, tol)
                    assert majorizes(x, y_, tol) is expected
                    seen.add(expected)
        assert seen == {True, False}

    def test_reflexivity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = random_prob_vector(rng, rng.integers(1, 9))
            assert majorizes(v, v)

    def test_uniform_bottom_and_peak_top(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            v = random_prob_vector(rng, d)
            uniform = ProbVector(np.full(d, 1.0 / d))
            peak = ProbVector([1.0] + [0.0] * (d - 1))
            assert majorizes(uniform, v)
            assert majorizes(v, peak)

    def test_transitivity_on_constructed_chains(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            z = random_prob_vector(rng, int(rng.integers(2, 8)))
            y = majorized_image(rng, z)
            x = majorized_image(rng, y)
            assert majorizes(y, z) and majorizes(x, y)
            assert majorizes(x, z)


class TestTensor:
    def test_identity_factor(self):
        out = tensor(ProbVector([1.0, 0.0]), ProbVector([0.5, 0.5]))
        assert np.allclose(out.entries, [0.5, 0.5, 0.0, 0.0])

    def test_uniform_times_uniform(self):
        out = tensor(ProbVector([0.5, 0.5]), ProbVector([0.5, 0.5]))
        assert np.allclose(out.entries, [0.25] * 4)

    def test_hand_enumerated_products(self):
        # products of (0.8, 0.2) x (0.6, 0.4): 0.48, 0.32, 0.12, 0.08
        out = tensor(ProbVector([0.8, 0.2]), ProbVector([0.6, 0.4]))
        assert np.allclose(out.entries, [0.48, 0.32, 0.12, 0.08], atol=1e-15)

    def test_order_independent(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = random_prob_vector(rng, int(rng.integers(1, 6)))
            y = random_prob_vector(rng, int(rng.integers(1, 6)))
            assert np.allclose(tensor(x, y).entries, tensor(y, x).entries)


class TestMix:
    def test_four_equal_pointers(self):
        half = ProbVector([0.5, 0.5])
        out = mix([(0.25, half)] * 4)
        assert np.allclose(out.entries, [0.5, 0.5])

    def test_single_entry_identity(self):
        v = ProbVector([0.7, 0.2, 0.1])
        assert np.allclose(mix([(1.0, v)]).entries, v.entries)

    def test_direct_arithmetic(self):
        out = mix([(0.5, ProbVector([1.0, 0.0])), (0.5, ProbVector([0.5, 0.5]))])
        assert np.allclose(out.entries, [0.75, 0.25])

    def test_pads_to_common_dimension(self):
        out = mix([(0.5, ProbVector([1.0])), (0.5, ProbVector([0.5, 0.25, 0.25]))])
        assert out.dim == 3
        assert np.allclose(out.entries, [0.75, 0.125, 0.125])

    def test_rejects_bad_weight_sum(self):
        v = ProbVector([1.0])
        with pytest.raises(ValidationError):
            mix([(0.6, v), (0.6, v)])

    def test_rejects_negative_weights(self):
        v = ProbVector([1.0])
        with pytest.raises(ValidationError):
            mix([(1.5, v), (-0.5, v)])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            mix([])

    def test_entries_match_a_sequential_sum(self):
        # oracle: each padded entry summed as w * v in member order by a plain loop, then sorted
        rng = np.random.default_rng(13)
        for _ in range(300):
            size = int(rng.integers(1, 5))
            parts = [random_prob_vector(rng, int(rng.integers(1, 65))) for _ in range(size)]
            weights = rng.dirichlet(np.ones(size)).tolist()
            expected = [0.0] * max(v.dim for v in parts)
            for w, v in zip(weights, parts):
                for i in range(v.dim):
                    expected[i] = expected[i] + w * float(v.entries[i])
            got = mix(list(zip(weights, parts))).entries
            assert got.tobytes() == np.array(sorted(expected, reverse=True)).tobytes()

    def test_componentwise_envelope(self):
        # each output component stays between the extremes of the inputs'
        # corresponding sorted components
        rng = np.random.default_rng(11)
        for _ in range(100):
            parts = [random_prob_vector(rng, 4) for _ in range(3)]
            weights = rng.dirichlet(np.ones(3))
            out = mix(list(zip(weights, parts)))
            stacked = np.stack([p.entries for p in parts])
            assert np.all(out.entries <= stacked.max(axis=0) + 1e-12)
            assert np.all(out.entries >= stacked.min(axis=0) - 1e-12)


class TestEntropy:
    def test_known_values(self):
        assert entropy_bits(ProbVector([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)
        assert entropy_bits(ProbVector([1.0, 0.0])) == 0.0
        assert entropy_bits(ProbVector([0.25] * 4)) == pytest.approx(2.0, abs=1e-12)

    def test_within_range(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            v = random_prob_vector(rng, d)
            h = entropy_bits(v)
            assert -1e-12 <= h <= np.log2(d) + 1e-12

    def test_clamped_at_zero(self):
        # a near-pure vector whose entries sum to 1 only within rounding
        # has a tiny negative plain-sum entropy
        v = ProbVector([1.0 + 5e-10, 1e-300])
        assert entropy_bits(v) == 0.0

    def test_schur_concavity(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            y = random_prob_vector(rng, int(rng.integers(2, 8)))
            x = majorized_image(rng, y)
            assert entropy_bits(x) >= entropy_bits(y) - 1e-12

    def test_binary_entropy(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.0) == 0.0
        with pytest.raises(ValidationError):
            binary_entropy(1.5)

    def test_binary_entropy_bounds_share_one_tolerance(self):
        # NaN failed both comparisons of the old check and came back as nan.
        for bad in (float("nan"), -2e-9, 1.0 + 2e-9):
            with pytest.raises(ValidationError, match="outside"):
                binary_entropy(bad)
        assert binary_entropy(-5e-10) == 0.0
        assert binary_entropy(1.0 + 5e-10) == 0.0

    @pytest.mark.parametrize("bad", ["0.5", None, Decimal("0.5"), True, False, np.True_, np.False_, np.complex128(0.9),
                                     np.complex128(0.9 + 0.4j), Fraction(9, 10), np.array(0.9),
                                     pytest.param(10**20, id="10**20"), pytest.param(10**400, id="10**400"),
                                     pytest.param(10**5000, id="10**5000")])
    def test_binary_entropy_rejects_non_numbers(self, bad):
        # a bool passed as 1 or 0 and came back as 0.0; a numpy complex gave the entropy of a complex p, over 1 bit
        # for 0.3+0.9j, behind only a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^binary entropy argument .* is not a number$"):
                binary_entropy(bad)
