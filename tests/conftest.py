"""Settings shared by every test module.

When a hypothesis test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write a patch of the failing example.
That module imports ``libcst``, which raises a ``mypy_extensions.TypedDict``
``DeprecationWarning`` on import; under ``-W error``, as CI runs the suite,
the plugin then ends the run in ``INTERNALERROR`` instead of showing the
falsifying example.  Importing the module here once, with that warning
ignored, leaves the plugin a module that is already loaded.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips the patch
        pass
