"""Every name ``qscontrol.ito`` exports resolves: a name deleted from the
package but left in ``__all__`` fails here, not at a user's star import."""

import qscontrol.ito as ito


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from qscontrol.ito import *", namespace)  # AttributeError on a stale name
    assert ito.__all__ and set(ito.__all__) <= namespace.keys()
    assert len(set(ito.__all__)) == len(ito.__all__)

