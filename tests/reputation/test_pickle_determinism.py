"""Pickled mechanisms are the same bytes in every process.

Service snapshots and scenario checkpoints pickle the mechanism with its
evidence store.  Anything pickled in hash order (a ``set``) would make those
bytes depend on ``PYTHONHASHSEED``, so two processes holding the same state
would write different files.  Each mechanism is built and pickled in two
subprocesses with different hash seeds, and the digests must agree.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import hashlib
import pickle
import random

from repro.reputation.registry import REPUTATION_FACTORIES, make_reputation_system
from repro.simulation.transaction import Feedback

peers = [f"peer-{index:02d}" for index in range(40)]
for name in sorted(REPUTATION_FACTORIES):
    rng = random.Random(3)
    system = make_reputation_system(name)
    for transaction_id in range(400):
        subject = rng.randrange(len(peers))
        rater = (subject + 1 + rng.randrange(len(peers) - 1)) % len(peers)
        system.record_feedback(
            Feedback(
                transaction_id=transaction_id,
                time=float(transaction_id // 40),
                subject=peers[subject],
                rating=rng.choice([0.0, 1.0]),
                rater=peers[rater],
            )
        )
        if transaction_id % 100 == 99:
            system.refresh()
    print(name, hashlib.sha256(pickle.dumps(system, protocol=4)).hexdigest())
"""


def _digests(hash_seed: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return completed.stdout


def test_pickled_mechanisms_do_not_depend_on_the_hash_seed():
    first = _digests("1")
    assert len(first.splitlines()) == 5
    assert _digests("2") == first
