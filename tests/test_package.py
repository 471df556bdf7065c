import ppcavity


def test_every_exported_name_resolves():
    missing = [name for name in ppcavity.__all__ if not hasattr(ppcavity, name)]
    assert missing == []
