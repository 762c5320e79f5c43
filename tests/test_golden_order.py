"""The golden campaigns in reverse order, in one fresh interpreter.

The HiGHS solver and the settings memo live as long as the process, so in
the full test run every golden campaign starts from the state its
predecessors left.  Here they run in the reverse of that order, in one
child that starts empty, and each must still write its reference
report.json and a runs.csv of its pinned digest.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from ewfs import harness
from test_golden import CAMPAIGNS, GOLDEN, reference, report_diff

SCRIPT = """
import json, sys
from pathlib import Path
import test_golden
out = Path(sys.argv[1])
names = sorted(test_golden.CAMPAIGNS, reverse=True)
print(json.dumps([[name, test_golden._outputs(name, out / name)[1]] for name in names]))
"""


def test_golden_campaigns_in_reverse_order(tmp_path):
    src = Path(harness.__file__).resolve().parents[1]
    path = os.pathsep.join(
        [str(src), str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout)
    assert [name for name, _ in digests] == sorted(CAMPAIGNS, reverse=True)
    for name, csv in digests:
        report = (tmp_path / name / "report.json").read_bytes()
        assert report == reference(name), f"{name}\n{report_diff(reference(name), report)}"
        assert csv == GOLDEN[name][1], name
