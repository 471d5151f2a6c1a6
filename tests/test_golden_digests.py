"""The committed golden digest corpus: absolute record bytes, not two live runs.

``tests/golden/digests.json`` pins the SHA-256 of every shipped template's
small-tier record per mechanism, every experiment's quick structured
output, a live service's final ``/v1/scores`` body per mechanism (checked
against a session snapshotted and restored halfway), four scenario runs
on the sparse local-trust branch and the generated graph of every network
preset plus one Erdős–Rényi specification.  ``tools/golden_digests.py`` regenerates
the file; a digest changes only in a change whose CHANGES.md names the key
and the reason.
"""

from tools.golden_digests import compute_digests, drifted_keys, load_digests


def test_every_golden_digest_matches():
    expected = load_digests()
    actual = compute_digests()
    drifted = drifted_keys(expected, actual)
    assert not drifted, (
        f"{len(drifted)} of {len(expected)} golden digests drifted: {', '.join(drifted)}"
    )


def test_drift_report_names_changed_added_and_removed_keys():
    expected = {"a": "1", "b": "2", "c": "3"}
    actual = {"a": "1", "b": "9", "d": "4"}
    assert drifted_keys(expected, actual) == ["b", "c", "d"]
