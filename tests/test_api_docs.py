"""Keeps docs/API.md in sync with the code's docstrings."""

import os
import sys

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs", "API.md")
TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


def test_api_reference_is_up_to_date():
    sys.path.insert(0, TOOLS)
    try:
        import gen_api_docs
    finally:
        sys.path.remove(TOOLS)
    with open(DOCS) as handle:
        on_disk = handle.read()
    assert on_disk == gen_api_docs.generate(), (
        "docs/API.md is stale; run `python tools/gen_api_docs.py`"
    )


def test_api_reference_covers_the_headline_classes():
    with open(DOCS) as handle:
        text = handle.read()
    for name in (
        "DenseSequentialFile",
        "Control2Engine",
        "Control1Engine",
        "MacroBlockControl2Engine",
        "PersistentDenseFile",
        "JournaledDenseFile",
        "ThreadSafeDenseFile",
        "CalibratorTree",
        "BPlusTree",
        "PackedMemoryArray",
        "OverflowChainFile",
    ):
        assert f"class `{name}`" in text, name
