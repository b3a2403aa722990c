import specpot


def test_public_names_resolve():
    missing = [name for name in specpot.__all__ if not hasattr(specpot, name)]
    assert missing == []
