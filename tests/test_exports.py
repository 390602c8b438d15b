"""The package's export list names each public object once."""

import proxgap


def test_all_names_resolve_once():
    names = proxgap.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(proxgap, name)]
    assert missing == []
