"""Tests for the ecology CSV schema, projection, and synthetic generation."""

import numpy as np
import pytest

from fsim.basis import FourierBasis, project_samples
from fsim.ingest import (
    N_BINS,
    EcologyRecord,
    EcologyTruth,
    SchemaError,
    load_csv,
    synth_ecology,
    to_dataset,
    write_csv,
)
from fsim.model import compute_index, IndexModelSpec
from fsim.simulate import LINKS


def make_record(rng):
    return EcologyRecord(
        logarea_t1=float(rng.normal()),
        logarea_t0=float(rng.normal()),
        w=float(rng.normal()),
        precip=rng.normal(size=N_BINS),
        temp=rng.normal(size=N_BINS),
    )


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [make_record(rng) for _ in range(5)]
        path = tmp_path / "eco.csv"
        write_csv(records, path)
        loaded = load_csv(path)
        assert len(loaded) == 5
        for a, b in zip(records, loaded):
            assert a.logarea_t1 == b.logarea_t1
            assert a.logarea_t0 == b.logarea_t0
            assert a.w == b.w
            np.testing.assert_array_equal(a.precip, b.precip)
            np.testing.assert_array_equal(a.temp, b.temp)

    def test_response_is_log_area_change(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [make_record(rng) for _ in range(2)]
        path = tmp_path / "eco.csv"
        write_csv(records, path)
        for record in load_csv(path):
            assert record.response == record.logarea_t1 - record.logarea_t0

    def test_missing_column_named(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "eco.csv"
        write_csv([make_record(rng)], path)
        text = path.read_text().replace("t.17", "t.99")
        path.write_text(text)
        with pytest.raises(SchemaError, match="t.17"):
            load_csv(path)

    def test_bad_cell_coordinates(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "eco.csv"
        write_csv([make_record(rng), make_record(rng)], path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "not-a-number"  # column p.00 on data line 3
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"line 3, column p\.00"):
            load_csv(path)

    # float() parses each of these; only the finiteness check rejects them
    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_non_finite_cell_named(self, tmp_path, text):
        rng = np.random.default_rng(8)
        path = tmp_path / "eco.csv"
        write_csv([make_record(rng), make_record(rng)], path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[2] = text  # column W on data line 3
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"line 3, column W: non-finite value"):
            load_csv(path)

    def test_short_row_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "eco.csv"
        write_csv([make_record(rng)], path)
        lines = path.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="line 2"):
            load_csv(path)

    @pytest.mark.parametrize("blank_at", [None, 2])
    def test_blank_lines_are_skipped(self, tmp_path, blank_at):
        # a trailing blank line (blank_at None) or one between two records
        rng = np.random.default_rng(6)
        clean = tmp_path / "clean.csv"
        write_csv([make_record(rng) for _ in range(3)], clean)
        lines = clean.read_text().splitlines()
        lines.insert(len(lines) if blank_at is None else blank_at, "")
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join(lines) + "\n")
        expected, got = load_csv(clean), load_csv(blank)
        assert len(got) == len(expected) == 3
        for a, b in zip(got, expected):
            assert (a.logarea_t1, a.logarea_t0, a.w) == (b.logarea_t1, b.logarea_t0, b.w)
            np.testing.assert_array_equal(a.precip, b.precip)
            np.testing.assert_array_equal(a.temp, b.temp)

    def test_errors_after_a_blank_line_name_the_files_own_line(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "eco.csv"
        write_csv([make_record(rng), make_record(rng)], path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1])
        lines.insert(2, "")
        path.write_text("\n".join(lines) + "\n")
        # the short record is the file's fourth line, the data's second row
        with pytest.raises(SchemaError, match="line 4 has"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "eco.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            load_csv(path)


class TestToDataset:
    def test_no_records_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="no records to convert"):
            to_dataset([], FourierBasis(9))

    def test_shapes(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [make_record(rng) for _ in range(7)]
        data = to_dataset(records, FourierBasis(9))
        assert data.n == 7
        assert len(data.blocks) == 2
        assert data.blocks[0].coeffs.shape == (7, 9)
        assert data.w is not None

    def test_constant_history_projects_to_constant(self):
        record = EcologyRecord(1.0, 0.0, 0.5, np.full(N_BINS, 4.0), np.full(N_BINS, -2.0))
        data = to_dataset([record], FourierBasis(7))
        np.testing.assert_allclose(data.blocks[0].coeffs[0], [4, 0, 0, 0, 0, 0, 0], atol=1e-10)
        np.testing.assert_allclose(data.blocks[1].coeffs[0], [-2, 0, 0, 0, 0, 0, 0], atol=1e-10)

    def test_recovers_known_expansions(self):
        rng = np.random.default_rng(6)
        basis = FourierBasis(9)
        grid = np.linspace(0.0, 1.0, N_BINS)
        design = basis.design_matrix(grid)
        true_p = rng.standard_normal(9)
        true_t = rng.standard_normal(9)
        record = EcologyRecord(0.0, 0.0, 0.0, design @ true_p, design @ true_t)
        data = to_dataset([record], basis)
        np.testing.assert_allclose(data.blocks[0].coeffs[0], true_p, atol=1e-3)
        np.testing.assert_allclose(data.blocks[1].coeffs[0], true_t, atol=1e-3)

    def test_every_history_is_projected_as_on_its_own(self):
        rng = np.random.default_rng(8)
        records = [make_record(rng) for _ in range(30)]
        basis = FourierBasis(13)
        data = to_dataset(records, basis)
        for k, record in enumerate(records):
            for block, history in zip(data.blocks, (record.precip, record.temp)):
                alone = project_samples(history, basis).coeffs
                assert block.coeffs[k].tobytes() == alone.tobytes()

    def test_underdetermined_basis(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            to_dataset([make_record(rng)], FourierBasis(N_BINS + 2))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            to_dataset([], FourierBasis(5))


class TestSynthEcology:
    def test_linear_link_reconstruction(self, tmp_path):
        path = tmp_path / "synth.csv"
        truth = synth_ecology(path, n=40, seed=3, link="g3", noise_sd=0.0)
        records = load_csv(path)
        basis = FourierBasis(truth.basis_dim, include_constant=True)
        data = to_dataset(records, basis)
        index = truth.true_index(data)
        # identity link, no noise: response equals the index up to projection error
        np.testing.assert_allclose(data.y, index, atol=1e-6)

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        synth_ecology(a, n=12, seed=9, truth_path=tmp_path / "a.json")
        synth_ecology(b, n=12, seed=9, truth_path=tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_truth_json_round_trip(self, tmp_path):
        path = tmp_path / "synth.csv"
        truth = synth_ecology(path, n=10, seed=1, link="g2")
        loaded = EcologyTruth.from_json(str(path) + ".truth.json")
        assert loaded.alpha == truth.alpha
        assert loaded.link == "g2"
        np.testing.assert_array_equal(loaded.beta1, truth.beta1)
        np.testing.assert_array_equal(loaded.beta2, truth.beta2)

    def test_concave_truth_available(self, tmp_path):
        path = tmp_path / "synth.csv"
        truth = synth_ecology(path, n=25, seed=2, link="g2", noise_sd=0.0)
        records = load_csv(path)
        data = to_dataset(records, FourierBasis(truth.basis_dim))
        index = truth.true_index(data)
        np.testing.assert_allclose(data.y, LINKS["g2"].g(index), atol=1e-5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_true_index_is_the_hand_formula(self, tmp_path, seed):
        path = tmp_path / "synth.csv"
        truth = synth_ecology(path, n=30, seed=seed, link="g1")
        data = to_dataset(load_csv(path), FourierBasis(truth.basis_dim))
        x1, x2 = (block.coeffs[:, 1:] for block in data.blocks)
        hand = x1 @ truth.beta1 + x2 @ truth.beta2 + truth.alpha * data.w
        assert truth.true_index(data).tobytes() == hand.tobytes()

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError, match="unknown link 'g9'"):
            EcologyTruth(alpha=0.6, beta1=np.ones(2), beta2=np.ones(2), link="g9",
                         noise_sd=0.05, basis_dim=3, seed=0, n=10)

    def test_truth_is_jointly_unit_norm(self, tmp_path):
        truth = synth_ecology(tmp_path / "s.csv", n=8, seed=5)
        joint = np.concatenate([truth.beta1, truth.beta2])
        assert np.linalg.norm(joint) == pytest.approx(1.0, abs=1e-12)

    def test_spec_round_trip_through_model(self, tmp_path):
        # the truth should be expressible as a model spec and reproduce the index
        path = tmp_path / "synth.csv"
        truth = synth_ecology(path, n=15, seed=7, link="g3", noise_sd=0.0)
        basis = FourierBasis(truth.basis_dim)
        data = to_dataset(load_csv(path), basis)
        b1, b2 = truth.beta_expansions(basis)
        spec = IndexModelSpec((b1, b2), alpha=truth.alpha)
        np.testing.assert_allclose(compute_index(data, spec), data.y, atol=1e-6)
