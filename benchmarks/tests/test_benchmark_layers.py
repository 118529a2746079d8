"""Every module of the program under test is assigned to a layer."""

import os

import layers

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src", "repro",
)


def test_every_source_file_has_a_layer():
    unassigned = []
    for directory, _, files in os.walk(SRC):
        for filename in files:
            if filename.endswith(".py"):
                relative = os.path.relpath(os.path.join(directory, filename), SRC)
                relative = relative.replace(os.sep, "/")
                if layers.layer_of_source(relative) not in layers.LAYERS:
                    unassigned.append(relative)
    assert not unassigned, f"assign these to a layer in layers.SOURCE_LAYERS: {unassigned}"


def test_map_names_only_existing_sources():
    for relative in layers.SOURCE_LAYERS:
        assert os.path.exists(os.path.join(SRC, relative)), relative
