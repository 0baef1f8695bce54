"""The byte-identity digest tool (``tools/identity_digest.py``) on one tiny
table: every group gets a digest, and a rerun in the same process gives
the same digests."""

import importlib.util
import re
from pathlib import Path

from fcodt.datasets import gen_sim2
from fcodt.evaluation import ExperimentConfig

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity_digest.py"
_SPEC = importlib.util.spec_from_file_location("identity_digest", _PATH)
identity_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity_digest)


def test_digests_rerun_byte_identical():
    tables = {"tiny": gen_sim2(60, 0.1, 3)}
    runs = ExperimentConfig(methods=("fc_odt", "cart"), datasets=("sim1",), depths=(1,),
                            sample_sizes=(30,), repeats=1, lambda_grid=(0.1,), max_depth=1,
                            folds=2, test_samples=20)
    texts = [identity_digest.report(identity_digest.digests(tables, (1, 3), (0.0, 0.1), runs))
             for _ in range(2)]
    lines = texts[0].splitlines()
    assert [line.split()[0] for line in lines] == list(identity_digest.GROUPS)
    assert all(re.fullmatch(r"\w+ [0-9a-f]{64}", line) for line in lines)
    assert texts[1] == texts[0]
