"""Suite-wide options.

``--reverse`` runs the collected tests in reverse order, so a test that
passes only after another has left state behind (a module fixture, a file,
a global) fails: ``python -m pytest --reverse``.
"""


def pytest_addoption(parser):
    parser.addoption("--reverse", action="store_true",
                     help="run the collected tests in reverse order")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--reverse"):
        items.reverse()
