"""Parameter accounting and the savings metrics."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dep import (
    InvalidCounts,
    ModelConfig,
    PruneReport,
    count_params,
    param_breakdown,
    pr_all,
    pr_emb,
    report_from_counts,
)

DATA = Path(__file__).parent / "data"

# Exact totals for published checkpoints, derived once by summing the named
# tensor shapes by hand; frozen here so regressions are loud.
EXPECTED_TOTALS = {
    "bert_base": 109_482_240,
    "bert_tiny": 4_385_920,
    "roberta_base": 124_645_632,
    "mbert_base_uncased": 167_356_416,
    "xlm_roberta_base": 278_043_648,
    "distilroberta_base": 82_118_400,
}

BERT_BASE = ModelConfig(vocab_size=30522, d_model=768, num_layers=12, num_heads=12)
BERT_TINY = ModelConfig(vocab_size=30522, d_model=128, num_layers=2, num_heads=2)


class TestCountParams:
    def test_bert_base(self):
        params = count_params(BERT_BASE)
        assert params.n_total == EXPECTED_TOTALS["bert_base"]
        assert params.n_emb == 30522 * 768 == 23_440_896
        assert round(100 * params.poep, 1) == 21.4
        assert abs(params.n_total / 1e6 - 109.5) < 0.15

    def test_bert_tiny(self):
        params = count_params(BERT_TINY)
        assert params.n_total == EXPECTED_TOTALS["bert_tiny"]
        assert round(params.n_emb / 1e6, 1) == 3.9
        assert round(100 * params.poep, 1) == 89.1

    def test_roberta_family_exact_totals(self):
        roberta = ModelConfig(50265, 768, 12, 12, max_positions=514, type_vocab=1)
        assert count_params(roberta).n_total == EXPECTED_TOTALS["roberta_base"]
        distil = ModelConfig(50265, 768, 6, 12, max_positions=514, type_vocab=1)
        assert count_params(distil).n_total == EXPECTED_TOTALS["distilroberta_base"]

    def test_multilingual_exact_totals(self):
        mbert = ModelConfig(105879, 768, 12, 12)
        assert count_params(mbert).n_total == EXPECTED_TOTALS["mbert_base_uncased"]
        xlmr = ModelConfig(250002, 768, 12, 12, max_positions=514, type_vocab=1)
        assert count_params(xlmr).n_total == EXPECTED_TOTALS["xlm_roberta_base"]

    def test_degenerate_minimal_config(self):
        config = ModelConfig(
            vocab_size=1, d_model=1, num_layers=0, num_heads=1,
            max_positions=1, type_vocab=1, has_pooler=False,
        )
        params = count_params(config)
        assert params.n_emb == 1
        assert params.n_total == 1 + 1 + 1 + 2  # token + position + type + layer norm

    def test_breakdown_sums_to_total(self):
        breakdown = param_breakdown(BERT_BASE)
        assert sum(breakdown.values()) == count_params(BERT_BASE).n_total
        assert breakdown["pooler"] == 768 * 768 + 768
        assert breakdown["attention_qkv"] == 12 * 3 * (768 * 768 + 768)

    def test_ffn_dim_defaults_to_4x(self):
        assert BERT_BASE.ffn_dim == 4 * 768

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(30522, 768, 12, 7)  # heads do not divide d_model
        with pytest.raises(ValueError):
            ModelConfig(0, 768, 12, 12)


class TestPrEmb:
    def test_nothing_pruned(self):
        assert pr_emb(100, 100) == 0.0

    def test_published_worst_case_cell(self):
        reduction = pr_emb(30522, 1736)
        assert round(100 * reduction, 1) == 94.3

    def test_matches_fraction_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            original = int(rng.integers(1, 10**6))
            reduced = int(rng.integers(0, original + 1))
            exact = 1 - Fraction(reduced, original)
            assert abs(pr_emb(original, reduced) - float(exact)) < 1e-12

    @pytest.mark.parametrize("original,reduced", [(0, 0), (5, 6), (5, -1)])
    def test_invalid_counts(self, original, reduced):
        with pytest.raises(InvalidCounts):
            pr_emb(original, reduced)


class TestPrAll:
    def test_published_cell_cola(self):
        value = pr_all(0.801, count_params(BERT_BASE))
        assert abs(100 * value - 17.1) < 0.2

    def test_published_cell_xlmr_wnli(self):
        xlmr = ModelConfig(250002, 768, 12, 12, max_positions=514, type_vocab=1)
        value = pr_all(0.993, count_params(xlmr))
        # Table rounding puts the published cell at 68.5; full precision is ~68.6.
        assert abs(100 * value - 68.5) < 0.2

    def test_zero_reduction(self):
        assert pr_all(0.0, count_params(BERT_TINY)) == 0.0

    @given(st.floats(0, 1), st.integers(1, 10**6), st.integers(1, 512))
    def test_never_exceeds_pr_emb(self, emb_reduction, vocab, d_model):
        config = ModelConfig(vocab, d_model, 2, 1, max_positions=8, type_vocab=1)
        assert pr_all(emb_reduction, count_params(config)) <= emb_reduction + 1e-12

    def test_monotone_in_reduced_vocab(self):
        params = count_params(BERT_TINY)
        values = [pr_all(pr_emb(1000, reduced), params) for reduced in range(0, 1001, 50)]
        assert values == sorted(values, reverse=True)


class TestReports:
    def make_report(self, timestamp):
        """Report for keeping 3 of 8 rows of a toy model."""
        config = ModelConfig(8, 4, 1, 1, max_positions=4, type_vocab=1, name="toy")
        return report_from_counts(8, 3, config, timestamp), config

    def test_identity_remap_reports_zero(self):
        config = ModelConfig(4, 2, 1, 1, max_positions=2, type_vocab=1, name="t")
        report = report_from_counts(4, 4, config, timestamp="t0")
        assert report.pr_emb == 0.0
        assert report.pr_all == 0.0
        assert report.bytes_saved == 0

    def test_bytes_saved_arithmetic(self):
        config = ModelConfig(30522, 768, 12, 12, name="bert-base")
        report = report_from_counts(30522, 1736, config, timestamp="t0")
        assert report.bytes_saved == (30522 - 1736) * 768 * 4 == 28786 * 768 * 4

    def test_report_json_roundtrip(self):
        report, _ = self.make_report("2024-01-01T00:00:00Z")
        obj = json.loads(json.dumps(report.to_json_dict()))
        assert PruneReport(**{f.name: obj[f.name] for f in dataclasses.fields(PruneReport)}) == report

    def test_presentation_fields_rounded(self):
        config = ModelConfig(30522, 768, 12, 12, name="bert-base")
        obj = report_from_counts(30522, 1736, config, timestamp="t0").to_json_dict()
        assert obj["pr_emb_pct"] == 94.3
        assert obj["poep_pct"] == 21.4
        assert 0 < obj["pr_emb"] < 1  # full precision kept alongside

    def test_invariant_pr_all_equals_product(self):
        report, config = self.make_report("t0")
        params = count_params(config)
        assert report.pr_all == pytest.approx(report.pr_emb * params.poep, abs=1e-15)
        assert 0 <= report.pr_all <= report.pr_emb <= 1

    def test_source_date_epoch_controls_timestamp(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        config = ModelConfig(4, 2, 1, 1, max_positions=2, type_vocab=1)
        report = report_from_counts(4, 2, config)
        assert report.timestamp == "1970-01-01T00:00:00Z"
