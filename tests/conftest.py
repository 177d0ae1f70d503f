import json
import pathlib
import sys

import pytest

# in-process imports leave no bytecode under src/: a stale cache there
# changes how long a later process takes to set up
sys.dont_write_bytecode = True

import catwalk  # noqa: E402
from catwalk import dp, model  # noqa: E402

SCHEMA_DIR = pathlib.Path(catwalk.__file__).parent / "schemas"


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def schema():
    return load_schema


# The big tables are shared across test modules; building them once keeps
# the order-200 comparisons cheap.


@pytest.fixture(scope="session")
def dyck_cat_table_200():
    return dp.count_table(model.DYCK_CAT, 200)


@pytest.fixture(scope="session")
def skew_cat_table_200():
    return dp.count_table(model.SKEW_CAT, 200)
