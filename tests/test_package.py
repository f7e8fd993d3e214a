import flowsteer


def test_every_exported_name_resolves():
    # a stale string in __all__ only fails on `from flowsteer import *`
    missing = [name for name in flowsteer.__all__ if not hasattr(flowsteer, name)]
    assert missing == []
