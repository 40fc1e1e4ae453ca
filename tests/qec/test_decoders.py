"""Decoder contracts: MWPM, union-find, lookup.

The central invariant for every decoder: *the correction clears the
syndrome*.  The quality metric (no logical flip) is tested statistically and
exhaustively for small weights.
"""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError
from repro.qec.codes.repetition import RepetitionCode
from repro.qec.codes.steane import SteaneCode
from repro.qec.codes.surface import SurfaceCode
from repro.qec.lookup import LookupDecoder
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import sample_memory
from repro.qec.unionfind import UnionFindDecoder


def events_for(code, error_bits, error_type="x"):
    syndrome = code.syndrome(error_bits, error_type)
    return [(0, int(c)) for c in np.flatnonzero(syndrome)]


class TestMWPM:
    @pytest.mark.parametrize("d", [3, 5])
    def test_corrects_every_single_error(self, d):
        code = SurfaceCode(d)
        decoder = MWPMDecoder(code, "x")
        for q in range(code.num_data_qubits):
            error = np.zeros(code.num_data_qubits, dtype=bool)
            error[q] = True
            result = decoder.decode(events_for(code, error))
            residual = error ^ result.correction
            assert not code.syndrome(residual, "x").any()
            assert not code.logical_flipped(residual, "x"), q

    def test_corrects_every_weight2_error_d5(self):
        code = SurfaceCode(5)
        decoder = MWPMDecoder(code, "x")
        rng = np.random.default_rng(0)
        pairs = list(itertools.combinations(range(code.num_data_qubits), 2))
        for pair in rng.permutation(len(pairs))[:80]:
            error = np.zeros(code.num_data_qubits, dtype=bool)
            error[list(pairs[pair])] = True
            result = decoder.decode(events_for(code, error))
            residual = error ^ result.correction
            assert not code.syndrome(residual, "x").any()
            assert not code.logical_flipped(residual, "x"), pairs[pair]

    def test_empty_events_no_correction(self):
        code = SurfaceCode(3)
        result = MWPMDecoder(code, "x").decode([])
        assert not result.correction.any()
        assert result.weight == 0

    def test_z_error_decoding(self):
        code = SurfaceCode(3)
        decoder = MWPMDecoder(code, "z")
        error = np.zeros(9, dtype=bool)
        error[4] = True
        syndrome = code.syndrome(error, "z")
        result = decoder.decode([(0, int(c)) for c in np.flatnonzero(syndrome)])
        residual = error ^ result.correction
        assert not code.syndrome(residual, "z").any()

    def test_decode_accepts_history(self, rng):
        code = SurfaceCode(3)
        decoder = MWPMDecoder(code, "x")
        history = sample_memory(code, 3, 0.05, 0.05, rng)
        result = decoder.decode(history)
        residual = history.true_error ^ result.correction
        assert not code.syndrome(residual, "x").any()

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_property_correction_clears_syndrome(self, seed):
        code = SurfaceCode(3)
        decoder = MWPMDecoder(code, "x")
        rng = np.random.default_rng(seed)
        history = sample_memory(code, 3, 0.06, 0.06, rng)
        result = decoder.decode(history)
        residual = history.true_error ^ result.correction
        assert not code.syndrome(residual, "x").any()

    def test_time_separated_events_matched(self):
        """Pure measurement error: one check fires in rounds t and t+1 diff.

        A measurement lie at round t creates detection events at (t, c) and
        (t+1, c); matching them together needs no data correction.
        """
        code = SurfaceCode(3)
        decoder = MWPMDecoder(code, "x")
        result = decoder.decode([(1, 0), (2, 0)])
        assert not result.correction.any()

    def test_repetition_code_majority_vote(self):
        code = RepetitionCode(5)
        decoder = MWPMDecoder(code, "x")
        error = np.array([True, True, False, False, False])
        result = decoder.decode(events_for(code, error))
        residual = error ^ result.correction
        assert not code.logical_flipped(residual, "x")


class TestUnionFind:
    @pytest.mark.parametrize("d", [3, 5])
    def test_corrects_every_single_error(self, d):
        code = SurfaceCode(d)
        decoder = UnionFindDecoder(code, "x")
        for q in range(code.num_data_qubits):
            error = np.zeros(code.num_data_qubits, dtype=bool)
            error[q] = True
            result = decoder.decode(events_for(code, error), rounds=0)
            residual = error ^ result.correction
            assert not code.syndrome(residual, "x").any(), q
            assert not code.logical_flipped(residual, "x"), q

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=25, deadline=None)
    def test_property_correction_clears_syndrome(self, seed):
        code = SurfaceCode(3)
        decoder = UnionFindDecoder(code, "x")
        rng = np.random.default_rng(seed)
        history = sample_memory(code, 3, 0.05, 0.05, rng)
        result = decoder.decode(history)
        residual = history.true_error ^ result.correction
        assert not code.syndrome(residual, "x").any()

    def test_empty_events(self):
        code = SurfaceCode(3)
        result = UnionFindDecoder(code, "x").decode([], rounds=0)
        assert not result.correction.any()
        assert result.cluster_count == 0

    def test_pure_measurement_error_needs_no_data_correction(self):
        code = SurfaceCode(3)
        decoder = UnionFindDecoder(code, "x")
        result = decoder.decode([(1, 2), (2, 2)], rounds=3)
        assert not result.correction.any()

    def test_same_corrections_under_any_hash_seed(self):
        # The space-time graph's boundary node is a string tuple, so any
        # iteration over a set of nodes would follow PYTHONHASHSEED.
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from repro.qec.codes.surface import SurfaceCode
            from repro.qec.experiments import logical_error_rate
            from repro.qec.unionfind import UnionFindDecoder

            digest = hashlib.sha256()
            for d in (3, 5, 7):
                code = SurfaceCode(d)
                decoder = UnionFindDecoder(code, "x")
                rng = np.random.default_rng(d)
                for _ in range(100):
                    rounds = int(rng.integers(0, 4))
                    events = {
                        (int(rng.integers(0, rounds + 1)),
                         int(rng.integers(0, code.num_z_checks)))
                        for _ in range(int(rng.integers(1, 7)))
                    }
                    result = decoder.decode(sorted(events), rounds=rounds)
                    digest.update(result.correction.tobytes())
            code = SurfaceCode(3)
            rate = logical_error_rate(
                code, UnionFindDecoder(code, "x"), 3, 0.03, shots=300, seed=3
            )
            print(digest.hexdigest(), rate.logical_failures)
        """)
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = []
        for hash_seed in ("0", "1"):
            env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
            env.update(PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestLookup:
    def test_steane_corrects_all_single_errors(self):
        code = SteaneCode()
        decoder = LookupDecoder(code, "x")
        for q in range(7):
            error = np.zeros(7, dtype=bool)
            error[q] = True
            correction = decoder.decode(code.syndrome(error, "x"))
            assert (correction == error).all()

    def test_repetition_majority(self):
        code = RepetitionCode(5)
        decoder = LookupDecoder(code, "x")
        error = np.array([True, False, True, False, False])
        correction = decoder.decode(code.syndrome(error, "x"))
        residual = error ^ correction
        assert not code.syndrome(residual, "x").any()
        assert not code.logical_flipped(residual, "x")

    def test_strict_raises_outside_radius(self):
        code = RepetitionCode(3)
        decoder = LookupDecoder(code, "x", max_weight=0)
        with pytest.raises(DecodingError):
            decoder.decode(np.array([True, False]))

    def test_lenient_returns_zero(self):
        code = RepetitionCode(3)
        decoder = LookupDecoder(code, "x", max_weight=0, strict=False)
        assert not decoder.decode(np.array([True, False])).any()

    def test_no_checks_rejected(self):
        with pytest.raises(DecodingError):
            LookupDecoder(RepetitionCode(3), "z")

    def test_table_size_reasonable(self):
        decoder = LookupDecoder(SteaneCode(), "x")
        assert decoder.table_size == 8  # trivial + 7 single errors


class TestDecoderAgreement:
    def test_mwpm_and_unionfind_agree_on_logical_rate_regime(self):
        """Both decoders keep the logical error rate far below physical."""
        from repro.qec.experiments import logical_error_rate

        code = SurfaceCode(3)
        p = 0.01
        mwpm = logical_error_rate(
            code, MWPMDecoder(code, "x"), rounds=3, p_data=p, shots=150, seed=5
        )
        uf = logical_error_rate(
            code, UnionFindDecoder(code, "x"), rounds=3, p_data=p, shots=150, seed=5
        )
        assert mwpm.logical_error_rate < 0.1
        assert uf.logical_error_rate < 0.15
