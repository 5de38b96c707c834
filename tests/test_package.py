"""Public surface of the package: what ``__all__`` promises is there."""

import gausscolloc


def test_every_exported_name_resolves():
    missing = [name for name in gausscolloc.__all__ if not hasattr(gausscolloc, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(gausscolloc.__all__) == len(set(gausscolloc.__all__))

