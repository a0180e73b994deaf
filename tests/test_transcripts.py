"""Every CLI transcript of tests/cli_transcripts.json replays byte for byte,
and every usage error in it reads as its subcommand's."""

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


def test_usage_errors_print_their_subcommand_usage():
    # `model` is an alias of `sweep`, whose usage and prog it prints
    subcommands = {"bench": "bench", "sweep": "sweep", "model": "sweep",
                   "calibrate": "calibrate", "validate": "validate"}
    entries = [e for e in json.loads(CORPUS.read_text())
               if e["exit"] == 2 and e["argv"] and e["argv"][0] in subcommands]
    assert len(entries) > 80
    for entry in entries:
        sub = subcommands[entry["argv"][0]]
        assert entry["stderr"].startswith(f"usage: pwadvect {sub} "), entry["name"]
        assert entry["stderr"].splitlines()[-1].startswith(f"pwadvect {sub}: error: "), \
            entry["name"]
