import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icdlab.config import (RunConfig, config_sha256, config_text, parse_config,
                           parse_fractions, stage_seed)
from icdlab.corpus import CorpusConfig
from icdlab.errors import ValidationError
from icdlab.model import BaseHParams, BaseModel, RerankerHParams
from icdlab.train import TrainConfig


# --------------------------------------------------------------------------
# round-trip
# --------------------------------------------------------------------------


def test_defaults_round_trip():
    rc = RunConfig()
    assert parse_config(config_text(rc)) == rc


def test_round_trip_with_overrides():
    rc = dataclasses.replace(RunConfig(), seed=7, zipf_exponent=1.37,
                             architecture="laat", dedup_scope="global",
                             fractions="0.1,1.0")
    assert parse_config(config_text(rc)) == rc


@given(st.floats(min_value=1e-6, max_value=0.9, allow_nan=False),
       st.integers(min_value=1, max_value=10 ** 9))
def test_round_trip_floats_exact(lr, seed):
    # repr() floats must survive the text form bit-for-bit
    rc = dataclasses.replace(RunConfig(), learning_rate=lr, seed=seed)
    back = parse_config(config_text(rc))
    assert back.learning_rate == lr and back.seed == seed


def test_empty_text_gives_defaults():
    assert parse_config("") == RunConfig()


def test_comments_and_blank_lines_ignored():
    rc = parse_config("# a comment\n\nseed = 9  # trailing\n\n# done\n")
    assert rc.seed == 9


def test_sha_tracks_content():
    assert config_sha256(RunConfig()) != config_sha256(
        dataclasses.replace(RunConfig(), seed=1))
    assert config_sha256(RunConfig()) == config_sha256(RunConfig())


# --------------------------------------------------------------------------
# rejection paths carry line numbers
# --------------------------------------------------------------------------


def test_unknown_key_rejected_with_line():
    with pytest.raises(ValidationError, match="line 2"):
        parse_config("seed = 1\nbogus_key = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ValidationError, match="line 1"):
        parse_config("seed 1\n")


def test_bad_int_rejected():
    with pytest.raises(ValidationError, match="seed"):
        parse_config("seed = banana\n")


def test_bad_float_rejected():
    with pytest.raises(ValidationError, match="line 1: bad value for 'learning_rate'"):
        parse_config("learning_rate = fast\n")


def test_unknown_key_message_names_the_key():
    with pytest.raises(ValidationError, match="first"):
        parse_config("first = True\n")


def test_float_field_accepts_int_literal():
    assert parse_config("zipf_exponent = 2\n").zipf_exponent == 2.0


# --------------------------------------------------------------------------
# whole-file validation: every stage's checks run when the config is built
# --------------------------------------------------------------------------


@pytest.mark.parametrize("line, match", [
    ("decision_threshold = nan", "line 2"),
    ("zipf_exponent = nan", "line 2"),
    ("mean_codes_per_encounter = nan", "line 2"),
    ("mean_encounters_per_patient = inf", "line 2"),
    ("learning_rate = -inf", "line 2"),
    ("max_note_tokens = -3", "max_note_tokens"),
    ("max_note_tokens = 0", "max_note_tokens"),
    ("ece_bins = 0", "ece_bins"),
    ("min_token_count = 0", "min_token_count"),
    ("min_code_count = -1", "min_code_count"),
    ("n_dev_patients = -5", "n_dev_patients"),
    ("n_test_patients = -1", "n_test_patients"),
    ("kernel_width = 4", "kernel_width"),
    ("reranker_heads = 3", "head count 3"),
    ("reranker_heads = 3", "reranker_heads and reranker_d"),
    ("dedup_scope = sometimes", "dedup scope"),
    ("fractions = 0.5,half", "fractions"),
    ("fractions = 0.5", "fractions"),
    ("fractions = 0.5,2.0", "fractions"),
    ("fractions = nan,1.0", "fractions"),
    ("fractions = 0,1.0", "fractions"),
])
def test_bad_value_rejected_when_read(line, match):
    with pytest.raises(ValidationError, match=match):
        parse_config(f"seed = 42\n{line}\n")


def test_unknown_architecture_rejected_by_config_and_model():
    with pytest.raises(ValidationError, match="rnn"):
        parse_config("architecture = rnn\n")
    with pytest.raises(ValidationError, match="rnn"):
        BaseModel.init("rnn", 10, 2)


# every field changed from its default, still valid as a whole
NON_DEFAULT = RunConfig(
    seed=7, n_patients=40, n_codes=20, n_depts=3, n_doctors=6, tokens_per_code=2,
    vocab_size=150, zipf_exponent=1.3, ditto_probability=0.5,
    omitted_evidence_fraction=0.1, mean_encounters_per_patient=5.0,
    mean_codes_per_encounter=1.2, n_dev_patients=4, n_test_patients=6,
    dedup_scope="global", min_code_count=2, min_token_count=2, max_note_tokens=64,
    architecture="laat", d_e=8, d_c=12, kernel_width=3, d_a=6, reranker_d=16,
    reranker_heads=4, learning_rate=0.01, batch_size=4, max_epochs=7, patience=2,
    decision_threshold=0.3, reranker_max_epochs=9, reranker_patience=1,
    fractions="0.5,1.0", ece_bins=15)


def _hand_copied(rc):
    """The stage configs as the CLI once assembled them field by field."""
    def train_config(stage, max_epochs, patience):
        return TrainConfig(learning_rate=rc.learning_rate, batch_size=rc.batch_size,
                           max_epochs=max_epochs, patience=patience,
                           seed=stage_seed(rc.seed, stage),
                           decision_threshold=rc.decision_threshold)

    return {
        "corpus": CorpusConfig(
            n_patients=rc.n_patients, n_codes=rc.n_codes, n_depts=rc.n_depts,
            n_doctors=rc.n_doctors, tokens_per_code=rc.tokens_per_code,
            vocab_size=rc.vocab_size, zipf_exponent=rc.zipf_exponent,
            ditto_probability=rc.ditto_probability,
            omitted_evidence_fraction=rc.omitted_evidence_fraction,
            mean_encounters_per_patient=rc.mean_encounters_per_patient,
            mean_codes_per_encounter=rc.mean_codes_per_encounter,
            seed=stage_seed(rc.seed, "corpus")),
        "base": BaseHParams(d_e=rc.d_e, d_c=rc.d_c, kernel_width=rc.kernel_width,
                            d_a=rc.d_a),
        "reranker_hp": RerankerHParams(d=rc.reranker_d, n_heads=rc.reranker_heads),
        "train": train_config("train", rc.max_epochs, rc.patience),
        "reranker": train_config("reranker", rc.reranker_max_epochs,
                                 rc.reranker_patience),
        "fractions": train_config("fractions", rc.max_epochs, rc.patience),
    }


def test_non_default_config_changes_every_field():
    assert all(getattr(NON_DEFAULT, f.name) != getattr(RunConfig(), f.name)
               for f in dataclasses.fields(RunConfig))


@pytest.mark.parametrize("rc", [RunConfig(), NON_DEFAULT], ids=["default", "non-default"])
def test_stage_configs_match_hand_copied_fields(rc):
    derived = {"corpus": rc.corpus(), "base": rc.base_hparams(),
               "reranker_hp": rc.reranker_hparams(),
               **{stage: rc.train_config(stage)
                  for stage in ("train", "reranker", "fractions")}}
    assert derived == _hand_copied(rc)


# --------------------------------------------------------------------------
# derived seeds
# --------------------------------------------------------------------------


def test_stage_seed_deterministic():
    assert stage_seed(42, "corpus") == stage_seed(42, "corpus")


def test_stage_seed_separates_stages_and_masters():
    seeds = {stage_seed(42, s) for s in ("corpus", "split", "train", "reranker")}
    assert len(seeds) == 4
    assert stage_seed(42, "corpus") != stage_seed(43, "corpus")


def test_stage_seed_fits_in_64_bits():
    assert 0 <= stage_seed(0, "x") < 2 ** 64


# --------------------------------------------------------------------------
# fraction lists
# --------------------------------------------------------------------------


def test_parse_fractions():
    assert parse_fractions("0.05, 0.1,1.0") == [0.05, 0.1, 1.0]


def test_parse_fractions_rejects_garbage():
    with pytest.raises(ValidationError, match="bad fractions list '0.1,half'"):
        parse_fractions("0.1,half")


def test_parse_fractions_rejects_empty():
    with pytest.raises(ValidationError, match="fractions list is empty"):
        parse_fractions("")
