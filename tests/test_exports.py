import nwlearn


def test_every_exported_name_resolves_on_the_package():
    missing = [name for name in nwlearn.__all__ if not hasattr(nwlearn, name)]
    assert missing == []
    assert len(set(nwlearn.__all__)) == len(nwlearn.__all__)
