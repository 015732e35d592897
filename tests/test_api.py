import nclp


def test_all_names_resolve_once():
    assert len(nclp.__all__) == len(set(nclp.__all__))
    missing = [name for name in nclp.__all__ if not hasattr(nclp, name)]
    assert missing == []
