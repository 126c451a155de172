import movingatom


def test_every_public_name_resolves_once():
    names = movingatom.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(movingatom, name)] == []
