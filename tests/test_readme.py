"""The README's examples run as documented."""

import json
import re
from pathlib import Path

from inflap.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(r"^```%s\n(.*?)^```$" % lang, README, re.M | re.S)


def test_cli_config_converges(tmp_path):
    config, = _blocks("json")
    path = tmp_path / "config.json"
    path.write_text(config)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())["solve"]
    assert rep["status"] == "converged"


def test_library_examples_run_in_order():
    blocks = _blocks("python")
    assert len(blocks) >= 2
    namespace = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].status == "converged"
