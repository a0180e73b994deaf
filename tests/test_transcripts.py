"""Every CLI transcript of tests/cli_transcripts.json replays byte for byte."""

import json

from make_transcripts import CORPUS, prime, run


def test_cli_transcripts_replay():
    prime()
    entries = json.loads(CORPUS.read_text())
    changed = []
    for entry in entries:
        got = run(entry["argv"], entry["env"], entry["files"])
        want = {key: entry[key] for key in got}
        assert "Traceback" not in want["stderr"], entry["name"]
        if got != want:
            changed.append((entry["name"], want, got))
    assert not changed, (f"{len(changed)} of {len(entries)} transcripts changed; first: "
                         f"{changed[0]}; rewrite with python tests/make_transcripts.py "
                         "and list every changed entry")
