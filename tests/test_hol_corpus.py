import json

import pytest

import hol_corpus
from bundlecalc import config

CORPUS = json.loads(hol_corpus.FIXTURE.read_text(encoding="utf-8"))


def test_the_fixture_holds_every_case():
    assert [(c["argv"], c.get("config")) for c in CORPUS] == \
        [(c["argv"], c.get("config")) for c in hol_corpus.cases()]


@pytest.mark.parametrize("case", CORPUS, ids=lambda c: " ".join(c["argv"][1:6]))
def test_output_is_byte_identical(monkeypatch, case):
    monkeypatch.delenv(config.ENV_VAR, raising=False)
    assert hol_corpus.run_case(case) == {k: case[k] for k in ("code", "stdout", "stderr")}
