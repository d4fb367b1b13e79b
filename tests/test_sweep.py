import hashlib
import io
import os
import stat
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from entdisc import (
    CSV_HEADER,
    DEFAULT_TOL,
    BellFamily,
    SweepRecord,
    ValidationError,
    assisted_alpha2_max,
    avg_entanglement,
    binary_entropy,
    perfect_discrimination_feasible,
    preserve_cost,
    records_to_csv,
    run_sweep,
    three_state_feasible,
    write_csv,
)
import entdisc.cli
import entdisc.sweep
from entdisc.states import check_family_priors
from entdisc.sweep import CSV_CHUNK_ROWS, MAX_GRID_N, _mean_entropy, format_value
from helpers import NullWriter, RecordingWriter, assert_block_writes, fail_on_second_block


def inverse_binary_entropy_upper(target: float) -> float:
    """The p in [0.5, 1] with binary entropy equal to ``target``."""
    lo, hi = 0.5, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestAvgEntanglement:
    def test_known_values(self):
        assert avg_entanglement(BellFamily.from_squared(0.5, 0.5)) == pytest.approx(1.0)
        assert avg_entanglement(BellFamily.from_squared(1.0, 1.0)) == pytest.approx(0.0)
        assert avg_entanglement(BellFamily.from_squared(0.5, 1.0)) == pytest.approx(0.5)

    def test_weighted(self):
        family = BellFamily.from_squared(0.5, 1.0)
        assert avg_entanglement(family, [1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)
        assert avg_entanglement(family, [0.0, 0.0, 0.5, 0.5]) == pytest.approx(0.0)

    def test_rejects_wrong_count(self):
        with pytest.raises(ValidationError):
            avg_entanglement(BellFamily.from_squared(0.5, 1.0), [0.5, 0.5])

    def test_rejects_invalid_priors(self):
        for probs in ([0.9] * 4, [np.nan, 0.5, 0.25, 0.25], [2.0, -1.0, 0.0, 0.0]):
            with pytest.raises(ValidationError):
                avg_entanglement(BellFamily.from_squared(0.5, 1.0), probs)


class TestRunSweep:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError):
            run_sweep("nope", 5)

    @pytest.mark.parametrize("mode, shown", [(np.array(["assist", "preserve"]), "<ndarray>"), (b"assist", "<bytes>"),
                                             (10**5000, "<int>")], ids=["array", "bytes", "10**5000"])
    def test_mode_must_be_a_string(self, mode, shown):
        # an array of modes raised numpy's ambiguous-truth ValueError, and an int past 4300 digits its repr's
        with pytest.raises(ValidationError, match=rf"^unknown sweep mode {shown}; expected one of \("):
            run_sweep(mode, 5)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValidationError):
            run_sweep("preserve", 1)

    def test_grid_cap(self):
        # 1002 is refused before any allocation; 1001 passes the grid check
        # and fails only on the invalid priors checked after it
        assert MAX_GRID_N == 1001
        with pytest.raises(ValidationError, match="grid_n must be between 2 and 1001, got 1002"):
            run_sweep("assist", MAX_GRID_N + 1)
        with pytest.raises(ValidationError, match="probabilities sum to"):
            run_sweep("assist", MAX_GRID_N, probs=[0.9] * 4)

    @pytest.mark.parametrize("grid_n", [5.0, "5", True, None, 5.5, np.timedelta64(5)])
    def test_rejects_non_integer_grid(self, grid_n):
        # a float or a string used to get past the range check and fail later
        # with a TypeError; numpy integers pass like ints
        with pytest.raises(ValidationError, match="grid_n must be between 2 and 1001"):
            run_sweep("preserve", grid_n)
        assert len(run_sweep("preserve", np.int64(5))) == 25

    def test_rejects_wrong_prob_count(self):
        with pytest.raises(ValidationError):
            run_sweep("preserve", 5, probs=[0.5, 0.5])
        with pytest.raises(ValidationError):
            run_sweep("feasible3", 5, probs=[0.25] * 4)

    def test_rejects_bad_subset(self):
        # non-integer indices used to be truncated, and True read as 1
        for which in [(0, 1), (0.9, 1, 2), (True, 2, 3), (np.timedelta64(0), 1, 2)]:
            with pytest.raises(ValidationError):
                run_sweep("feasible3", 5, which=which)
        # the other modes ignore which but check it: (9, 9, 9) used to return a table
        for mode in ("assist", "preserve"):
            for which in [(9, 9, 9), (7, 7, 7), (0, 1)]:
                with pytest.raises(ValidationError, match="three distinct indices"):
                    run_sweep(mode, 2, which=which)

    @pytest.mark.parametrize(
        "mode, probs",
        [
            ("preserve", [0.9, 0.9, 0.9, 0.9]),
            ("assist", [2.0, -1.0, 0.0, 0.0]),
            ("assist", [np.nan, 0.5, 0.25, 0.25]),
            ("feasible3", [0.5, 0.5, np.inf]),
        ],
    )
    def test_rejects_invalid_priors(self, mode, probs):
        with pytest.raises(ValidationError):
            run_sweep(mode, 3, probs=probs)

    def test_sequence_protocol(self):
        records = run_sweep("assist", 4)
        rows = list(records)
        assert len(records) == len(rows) == 16
        assert all(isinstance(r, SweepRecord) for r in rows)
        assert records[-1] == rows[-1] == records[15]
        assert records[-16] == rows[0]
        with pytest.raises(IndexError):
            records[16]
        with pytest.raises(IndexError):
            records[-17]
        assert list(records[3:9:2]) == rows[3:9:2]
        assert list(records[::-1]) == list(reversed(records)) == rows[::-1]
        assert len(records[5:5]) == 0
        assert isinstance(records[0].feasible_unassisted, bool)
        assert type(records[0].alpha2_max) is float

    def test_read_only(self):
        records = run_sweep("preserve", 3)
        with pytest.raises(TypeError):
            records[0] = records[1]
        with pytest.raises(AttributeError):
            records[0].a2 = 0.7

    def test_row_major_ordering_and_size(self):
        records = run_sweep("preserve", 3)
        assert len(records) == 9
        assert [(r.a2, r.c2) for r in records[:4]] == [
            (0.5, 0.5),
            (0.5, 0.75),
            (0.5, 1.0),
            (0.75, 0.5),
        ]

    def test_preserve_corners(self):
        records = {(r.a2, r.c2): r for r in run_sweep("preserve", 3)}
        assert records[(0.5, 0.5)].preserve_cost_ebits == pytest.approx(2.0, abs=1e-9)
        assert records[(1.0, 1.0)].preserve_cost_ebits == pytest.approx(0.0, abs=1e-12)
        assert records[(0.5, 0.5)].alpha2_max is None
        assert records[(0.5, 0.5)].feasible_unassisted is None

    def test_assist_corners(self):
        records = {(r.a2, r.c2): r for r in run_sweep("assist", 3)}
        top = records[(1.0, 1.0)]
        assert top.feasible_unassisted is True
        assert top.assist_cost_ebits == 0.0
        assert top.alpha2_max == 1.0
        bottom = records[(0.5, 0.5)]
        assert bottom.feasible_unassisted is False
        assert bottom.alpha2_max == pytest.approx(0.5, abs=1e-9)
        assert bottom.assist_cost_ebits == pytest.approx(1.0, abs=1e-9)
        assert bottom.preserve_cost_ebits is None

    def test_feasible3_corners(self):
        records = {(r.a2, r.c2): r for r in run_sweep("feasible3", 3)}
        assert records[(0.5, 0.5)].feasible_unassisted is False
        assert records[(1.0, 1.0)].feasible_unassisted is True
        assert records[(0.5, 0.5)].alpha2_max is None

    def test_assist_feasible_implies_zero_cost(self):
        # with uniform priors the verdict and alpha2_max read one lambda_1, so
        # each implies the other
        for grid_n in (11, 101):
            for r in run_sweep("assist", grid_n):
                assert r.feasible_unassisted == (r.alpha2_max == 1.0)
                if r.feasible_unassisted:
                    assert r.assist_cost_ebits == 0.0

    def test_symmetry_under_pair_swap(self):
        records = {(r.a2, r.c2): r for r in run_sweep("assist", 5)}
        for (a2, c2), r in records.items():
            mirror = records[(c2, a2)]
            assert r.feasible_unassisted == mirror.feasible_unassisted
            assert r.alpha2_max == pytest.approx(mirror.alpha2_max, abs=1e-12)
            assert r.assist_cost_ebits == pytest.approx(mirror.assist_cost_ebits, abs=1e-12)
        records = {(r.a2, r.c2): r for r in run_sweep("preserve", 5)}
        for (a2, c2), r in records.items():
            assert r.preserve_cost_ebits == pytest.approx(
                records[(c2, a2)].preserve_cost_ebits, abs=1e-12
            )

    def test_preserve_diagonal_identity(self):
        for r in run_sweep("preserve", 21):
            if r.a2 == r.c2:
                assert r.preserve_cost_ebits == pytest.approx(
                    2.0 * r.avg_ent_ebits, abs=1e-9
                )

    def test_record_ranges(self):
        for r in run_sweep("assist", 7):
            assert 0.0 <= r.avg_ent_ebits <= 1.0 + 1e-12
            assert 0.0 <= r.assist_cost_ebits <= 1.0 + 1e-12
            assert 0.5 - 1e-12 <= r.alpha2_max <= 1.0
        for r in run_sweep("preserve", 7):
            assert 0.0 <= r.preserve_cost_ebits <= 2.0 + 1e-12

    def test_agreement_with_pointwise_operations(self):
        # the batched grid evaluation must reproduce the per-point operations
        rng = np.random.default_rng(30)
        assist = run_sweep("assist", 11)
        preserve = run_sweep("preserve", 11)
        feas3 = run_sweep("feasible3", 11)
        for k in rng.choice(len(assist), 12, replace=False):
            family = BellFamily.from_squared(assist[k].a2, assist[k].c2)
            report = assisted_alpha2_max(family)
            assert assist[k].feasible_unassisted == perfect_discrimination_feasible(family)
            assert assist[k].alpha2_max == pytest.approx(report.alpha2_max, abs=1e-12)
            assert assist[k].assist_cost_ebits == pytest.approx(report.cost_ebits, abs=1e-12)
            assert assist[k].avg_ent_ebits == pytest.approx(avg_entanglement(family), abs=1e-12)
            assert preserve[k].preserve_cost_ebits == pytest.approx(
                preserve_cost(family), abs=1e-12
            )
            assert feas3[k].feasible_unassisted == three_state_feasible(family)

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_equal_per_point_calls_exactly(self, seed):
        # per-point calls are batches of one through the sweep's kernel, both
        # take entropies by the one rule in spectra, and a family holds the
        # axis values a2 and c2 themselves, so at every lattice point they
        # give the same verdicts, alpha2_max, assisted cost, mean entanglement
        # and preserving cost bit for bit, for any priors and subset
        rng = np.random.default_rng(seed)
        probs4 = None if seed == 0 else rng.dirichlet(np.ones(4)).tolist()
        probs3 = None if seed == 0 else rng.dirichlet(np.ones(3)).tolist()
        which = tuple(int(i) for i in rng.permutation(4)[:3])
        weights3 = check_family_priors(probs3, 3)
        assist = run_sweep("assist", 21, probs=probs4)
        preserve = run_sweep("preserve", 21, probs=probs4)
        feas3 = run_sweep("feasible3", 21, probs=probs3, which=which)
        for row, row_p, row3 in zip(assist, preserve, feas3):
            family = BellFamily.from_squared(row.a2, row.c2)
            assert row.feasible_unassisted == perfect_discrimination_feasible(family, probs4)
            report = assisted_alpha2_max(family)
            assert row.alpha2_max.hex() == report.alpha2_max.hex()
            assert row.assist_cost_ebits.hex() == report.cost_ebits.hex()
            assert row.avg_ent_ebits.hex() == avg_entanglement(family, probs4).hex()
            assert row_p.preserve_cost_ebits.hex() == preserve_cost(family, probs4).hex()
            assert row3.feasible_unassisted == three_state_feasible(family, which, probs3)
            h_a, h_c = binary_entropy(family.a2), binary_entropy(family.c2)
            assert row3.avg_ent_ebits.hex() == _mean_entropy(h_a, h_c, weights3, which).hex()

    def test_preserve_costs_nonnegative_for_rounded_priors(self):
        # priors summing to 1 only within rounding used to give -1e-16 at (1, 1)
        rng = np.random.default_rng(48)
        for _ in range(200):
            probs = rng.dirichlet(np.ones(4)).tolist()
            assert preserve_cost(BellFamily.from_squared(1.0, 1.0), probs) >= 0.0
            assert run_sweep("preserve", 2, probs=probs)[-1].preserve_cost_ebits >= 0.0

    def test_nonuniform_priors_match_pointwise_op(self):
        records = {(r.a2, r.c2): r for r in run_sweep("assist", 3, probs=[0.97, 0.01, 0.01, 0.01])}
        family = BellFamily.from_squared(0.5, 0.5)
        assert records[(0.5, 0.5)].feasible_unassisted == perfect_discrimination_feasible(
            family, [0.97, 0.01, 0.01, 0.01]
        )

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double here")
    def test_assist_alpha2_max_near_correctly_rounded(self):
        # oracle: lambda_1 as the larger top eigenvalue of the two X blocks of
        # the Bell-pointer composite, (F + sqrt(F^2 - 4 det^2)) / 2, all in long
        # double from the double lattice; alpha2_max = 1/(2 lambda_1) is then
        # rounded to double once. The batched SVD was up to 7 ulps off and
        # printed 16 cells differently at %.12g.
        n = 301
        axis = np.linspace(0.5, 1.0, n).astype(np.longdouble)
        a2, c2 = np.repeat(axis, n), np.tile(axis, n)
        a, b, c, d = np.sqrt(a2), np.sqrt(1 - a2), np.sqrt(c2), np.sqrt(1 - c2)
        lam = 0
        for sign in (1, -1):
            m00, m01, m10, m11 = a + sign * b, c + sign * d, d + sign * c, b + sign * a
            f = (m00**2 + m01**2 + m10**2 + m11**2) / 8
            det = (m00 * m11 - m01 * m10) / 8
            lam = np.maximum(lam, (f + np.sqrt(np.maximum(f * f - 4 * det * det, 0))) / 2)
        expected = np.where(lam <= 0.5 + DEFAULT_TOL, 1, 0.5 / lam).astype(float)
        got = np.concatenate([block["alpha2_max"] for block in run_sweep("assist", n)._blocks()])
        assert np.max(np.abs(got - expected) / np.spacing(expected)) <= 4
        moved = got != expected
        assert sum(format(x, ".12g") != format(y, ".12g") for x, y in zip(got[moved], expected[moved])) <= 6

    def test_preserve_edge_dominates_equal_average_fiber(self):
        # along a fixed average-entanglement fiber, the boundary through the
        # cusp configuration (one pair maximal, other product) has the
        # largest preserving cost
        for r in run_sweep("preserve", 21):
            level = r.avg_ent_ebits
            if level >= 0.5:
                c2_edge = inverse_binary_entropy_upper(2.0 * level - 1.0)
                edge_cost = preserve_cost(BellFamily.from_squared(0.5, c2_edge))
            else:
                a2_edge = inverse_binary_entropy_upper(2.0 * level)
                edge_cost = preserve_cost(BellFamily.from_squared(a2_edge, 1.0))
            assert edge_cost >= r.preserve_cost_ebits - 1e-9


class TestCsv:
    def test_header_and_shape(self):
        text = records_to_csv(run_sweep("preserve", 3))
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 10
        assert text.endswith("\n")
        assert "\r" not in text

    def test_preserve_rows_leave_assist_columns_empty(self):
        lines = records_to_csv(run_sweep("preserve", 3)).splitlines()
        first = lines[1].split(",")
        assert first[0] == "0.5" and first[1] == "0.5"
        assert first[3] == "" and first[4] == "" and first[5] == ""
        assert first[6] == "2"

    def test_assist_rows_have_booleans(self):
        lines = records_to_csv(run_sweep("assist", 3)).splitlines()
        assert lines[1].split(",")[3] == "false"
        assert lines[-1].split(",")[3] == "true"
        assert lines[1].split(",")[6] == ""

    def test_twelve_significant_digits(self):
        records = run_sweep("preserve", 4)
        row = records_to_csv(records).splitlines()[2].split(",")
        assert row[2] == format(records[1].avg_ent_ebits, ".12g")
        assert float(row[6]) == pytest.approx(records[1].preserve_cost_ebits, rel=1e-11)

    # SHA-256 of the CSV text as emitted before the sweep kept its results
    # as columns (preserve, feasible3) and before the sweep and the per-point
    # calls shared one kernel (assist); the output must not change by a byte.
    # The assist grid-101 digests are those of the closed-form lambda_1, which
    # moved 3 rows in the 12th digit of alpha2_max or assist_cost_ebits.
    @pytest.mark.parametrize(
        "mode, grid_n, probs, which, digest",
        [
            ("preserve", 21, None, (0, 1, 2), "91c7cfe4724f0e0bc4f00cb7d19aff796c9cc053f0d731bc9caa22ac54ee8e35"),
            ("preserve", 21, [0.4, 0.3, 0.2, 0.1], (0, 1, 2), "a2ec833594affaf766f6de0d9a7d58f3da0ad7d345a46f34d8303daa18b05e26"),
            ("preserve", 101, None, (0, 1, 2), "e6518a83d92075520987e6f82b8110290d35a650ef8d6ac42e7fae4c31562d1a"),
            ("preserve", 101, [0.4, 0.3, 0.2, 0.1], (0, 1, 2), "ce59c99782052660f9811e1d7505f7bcd34ce4ed1acaf008fa7bc98475771be7"),
            ("feasible3", 21, None, (0, 1, 2), "62d56cd76de9db9d3544f821a4ec99622666dd5d035ac4cd2c2f5921a68e9f34"),
            ("feasible3", 21, [0.5, 0.3, 0.2], (3, 0, 2), "554882d81b14870443e3427cea0fdda87dc5eae1d3310865dee2bd729d2541a4"),
            ("feasible3", 101, None, (0, 1, 2), "7223d5cb994ebd3fc7ef59fadeb888590af777fb98d4d22e7cb08ac157087d31"),
            ("feasible3", 101, [0.5, 0.3, 0.2], (3, 0, 2), "988f2b9a7edca8c80b31a663ccf8793330b51000cf0582674a4dec7d883cb992"),
            ("assist", 21, None, (0, 1, 2), "3984bc099e4eb7871fa8692c72bed8bbf647f261eb703b685dc2c0bcc740cbe0"),
            ("assist", 21, [0.4, 0.3, 0.2, 0.1], (0, 1, 2), "3a6a0c642e7e7b814ff611ecdb7bd09258493e98155d19ed3b58e4649e897402"),
            ("assist", 101, None, (0, 1, 2), "3775679451d847505a84fa8526e0af257855b15904647b2530cff5c477e17cdf"),
            ("assist", 101, [0.4, 0.3, 0.2, 0.1], (0, 1, 2), "b4e814a508847af0b307b319550920586d479282488823b264a6c2e1e80de800"),
        ],
    )
    def test_pinned_digest(self, mode, grid_n, probs, which, digest):
        text = records_to_csv(run_sweep(mode, grid_n, probs=probs, which=which))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "mode, grid_n, probs",
        [
            ("assist", 4, None),
            ("assist", 101, [0.4, 0.3, 0.2, 0.1]),
            ("preserve", 101, [0.1, 0.2, 0.3, 0.4]),
            ("feasible3", 101, [0.5, 0.3, 0.2]),
        ],
    )
    @pytest.mark.parametrize(
        "rows", [slice(2, 7), slice(None, None, -7), slice(5, 9000, 13), slice(None, None, -1)]
    )
    def test_slices_format_like_record_lists(self, mode, grid_n, probs, rows):
        # the columnar formatter takes slices in any order and stride, across
        # chunk boundaries, and prints what record-by-record formatting does
        table = run_sweep(mode, grid_n, probs=probs, which=(3, 0, 2))[rows]
        assert records_to_csv(table) == records_to_csv(list(table))

    def test_arbitrary_record_lists(self):
        # lists of records, including mixed modes, render as the per-field
        # formatting always did
        records = list(run_sweep("assist", 3)) + list(run_sweep("preserve", 3))
        records.append(SweepRecord(a2=0.5, c2=0.5, avg_ent_ebits=1 / 3, feasible_unassisted=False))
        lines = records_to_csv(records).splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 20
        assert lines[9] == "1,1,0,true,1,0,"
        assert lines[10] == "0.5,0.5,1,,,,2"
        assert lines[-1] == "0.5,0.5,0.333333333333,false,,,"
        assert records_to_csv([]) == CSV_HEADER + "\n"
        assert records_to_csv(iter(records)) == records_to_csv(records)

    def test_byte_identical_across_runs(self):
        first = records_to_csv(run_sweep("assist", 9))
        second = records_to_csv(run_sweep("assist", 9))
        assert first == second

    def test_write_csv_to_path(self, tmp_path):
        records = run_sweep("preserve", 3)
        target = tmp_path / "out.csv"
        write_csv(records, target)
        assert target.read_bytes().decode("utf-8") == records_to_csv(records)

    def test_write_csv_to_file_object(self):
        records = run_sweep("feasible3", 3)
        buffer = io.StringIO()
        write_csv(records, buffer)
        assert buffer.getvalue() == records_to_csv(records)

    def test_write_csv_in_bounded_slices(self, tmp_path, monkeypatch):
        # the 22 801-row grid-151 CSV reaches a file object and a path one
        # CSV_CHUNK_ROWS block per write call, never as one whole-text write
        records = run_sweep("preserve", 151)
        text = records_to_csv(records)
        sink = RecordingWriter()
        write_csv(records, sink)
        assert_block_writes(sink.writes, text)
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(RecordingWriter(open(*args, **kwargs)))
            return opened[-1]

        monkeypatch.setattr(entdisc.sweep, "open", recording_open, raising=False)
        target = tmp_path / "out.csv"
        write_csv(records, target)
        monkeypatch.undo()
        assert len(opened) == 1
        assert_block_writes(opened[0].writes, text)
        assert target.read_bytes() == text.encode("utf-8")


class TestBlockRendering:
    """A table block is rendered in one formatting call and must print what format_value gives row by row."""

    def test_numpy_bools_render_as_words(self, capsys):
        assert format_value(np.True_) == "true" and format_value(np.False_) == "false"
        assert records_to_csv([SweepRecord(0.5, 0.5, 0.1, np.True_)]).splitlines()[1] == "0.5,0.5,0.1,true,,,"
        entdisc.cli._emit({"x": np.True_, "y": [np.False_, True]}, False)
        assert capsys.readouterr().out == "x = true\ny = false, true\n"

    @pytest.mark.parametrize(
        "mode, probs", [("assist", [0.4, 0.3, 0.2, 0.1]), ("preserve", None), ("feasible3", [0.5, 0.3, 0.2])]
    )
    @pytest.mark.parametrize("rows", [slice(None, None, -1), slice(5, 9000, 13)])
    def test_write_csv_on_strided_tables(self, mode, probs, rows):
        # _write_blocks slices a strided table again, block by block; each
        # slice must render the points that record-by-record formatting does
        table = run_sweep(mode, 101, probs=probs, which=(3, 0, 2))[rows]
        buffer = io.StringIO()
        write_csv(table, buffer)
        assert buffer.getvalue() == records_to_csv(list(table))


class TestWriteCsvPath:
    """A path is written all or nothing; what is not a regular file is written in place."""

    @pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_leaves_old_file_or_none(self, tmp_path, monkeypatch, exc_type, existing):
        # the 10 201-point grid-101 scan takes three blocks; the second fails
        target = tmp_path / "out.csv"
        if existing:
            target.write_bytes(b"old bytes\n")
        fail_on_second_block(monkeypatch, exc_type)
        with pytest.raises(exc_type):
            write_csv(run_sweep("preserve", 101), target)
        assert os.listdir(tmp_path) == (["out.csv"] if existing else [])
        if existing:
            assert target.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize("kind", [str, os.fsencode])
    def test_str_and_bytes_paths(self, tmp_path, kind):
        # a PathLike is test_write_csv_to_path's case
        records = run_sweep("assist", 3)
        target = tmp_path / "out.csv"
        write_csv(records, kind(target))
        assert target.read_text(encoding="utf-8") == records_to_csv(records)
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_permission_bits(self, tmp_path):
        # a new file gets what open(path, "w") gives; an existing one keeps its own
        reference = tmp_path / "reference"
        open(reference, "w").close()
        new = tmp_path / "new.csv"
        write_csv(run_sweep("preserve", 3), new)
        assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
        existing = tmp_path / "existing.csv"
        existing.write_text("old\n")
        existing.chmod(0o640)
        write_csv(run_sweep("preserve", 3), existing)
        assert stat.S_IMODE(existing.stat().st_mode) == 0o640
        assert existing.read_text(encoding="utf-8") == records_to_csv(run_sweep("preserve", 3))

    @pytest.mark.skipif(sys.platform == "win32" or os.geteuid() == 0, reason="root may write a read-only file")
    def test_read_only_file_is_refused(self, tmp_path):
        # a file that open(path, "w") could not write is not replaced either
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        target.chmod(0o444)
        with pytest.raises(PermissionError):
            write_csv(run_sweep("preserve", 3), target)
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_symlink_keeps_pointing_at_its_target(self, tmp_path):
        target = tmp_path / "data" / "out.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        records = run_sweep("feasible3", 3)
        write_csv(records, link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text(encoding="utf-8") == records_to_csv(records)
        assert sorted(os.listdir(tmp_path)) == ["data", "link.csv"]
        assert os.listdir(target.parent) == ["out.csv"]

    @pytest.mark.parametrize("kind", [str, os.fsencode])
    def test_empty_path_is_refused_before_writing(self, tmp_path, monkeypatch, kind):
        # realpath("") is the working directory, so the temporary file used to
        # be written beside it, in its parent, before the rename failed
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        with pytest.raises(FileNotFoundError) as info:
            write_csv(run_sweep("preserve", 3), kind(""))
        assert (info.value.errno, info.value.filename) == (2, "")
        assert os.listdir(workdir) == [] and os.listdir(tmp_path) == ["work"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, encoding="utf-8") as handle:
                received.append(handle.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        records = run_sweep("preserve", 101)
        write_csv(records, fifo)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [records_to_csv(records)]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]


class TestStreaming:
    def test_integer_indexes_across_blocks_match_the_csv(self):
        # a record is computed alone, as a block of one, and must print as
        # its row of the whole CSV, on either side of every block boundary
        table = run_sweep("assist", 101, probs=[0.4, 0.3, 0.2, 0.1])
        lines = records_to_csv(table).splitlines()
        n = len(table)
        for k in (0, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, 2 * CSV_CHUNK_ROWS - 1, 2 * CSV_CHUNK_ROWS, n - 1, -1,
                  -(n - CSV_CHUNK_ROWS), -(n - CSV_CHUNK_ROWS) - 1, -n):
            assert records_to_csv([table[k]]).splitlines()[1] == lines[1 + range(n)[k]], k

    def test_slices_of_slices(self):
        table = run_sweep("feasible3", 101, which=(3, 0, 2))
        rows = list(table)
        nested = table[5:9000:13][::-1][::2]
        assert list(nested) == rows[5:9000:13][::-1][::2]
        assert records_to_csv(nested) == records_to_csv(rows[5:9000:13][::-1][::2])

    @pytest.mark.parametrize("mode", ["assist", "preserve", "feasible3"])
    def test_write_memory_flat_in_grid_n(self, mode, monkeypatch):
        # write_csv computes, formats and writes one block at a time, so the
        # memory it allocates does not grow with the lattice: grid 301 has 4
        # times grid 151's points, and its traced peak stays within 1.5 times.
        # Both grids fill whole CSV_CHUNK_ROWS blocks (grid 151 has 22 801
        # points, five full blocks and a partial one), so both reach the
        # one-block peak. With whole-lattice columns and a whole CSV text,
        # assist and preserve peaked 4 times higher at grid 301 than at grid 151.
        # The lambda_1 kernel returns one value per point of its batch.
        kernel = "family_lambda_max"
        batches = []

        def spy(*args, _original=getattr(entdisc.sweep, kernel)):
            lam = _original(*args)
            batches.append(len(lam))
            return lam

        monkeypatch.setattr(entdisc.sweep, kernel, spy)
        peaks = {}
        for grid_n in (151, 301):
            tracemalloc.start()
            try:
                write_csv(run_sweep(mode, grid_n), NullWriter())
                peaks[grid_n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[301] <= 1.5 * peaks[151], peaks
        assert max(batches, default=0) <= CSV_CHUNK_ROWS
        assert (len(batches) > 0) == (mode != "preserve")
