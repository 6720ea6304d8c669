"""Byte identity: every command line of the corpus (corpus.py) does what it
did when tests/corpus_digests.json was recorded."""

import json

import corpus


def test_every_command_line_keeps_its_bytes():
    lines = corpus.command_lines()
    assert len(lines) >= 2000
    found = corpus.differences(json.loads(corpus.DIGESTS.read_text()), corpus.digests(lines))
    assert not found, f"{len(found)} command lines:\n" + "\n".join(found)
