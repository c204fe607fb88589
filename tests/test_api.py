import crjet


def test_every_public_name_resolves():
    missing = [name for name in crjet.__all__ if not hasattr(crjet, name)]
    assert missing == []
