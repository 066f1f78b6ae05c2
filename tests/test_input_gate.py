"""Every image entry point refuses what is not an image, by one rule.

pixmap.input_image is the one gate: a non-empty 2-D array of integer,
bool or real floating dtype, taken as it is when integer, else as float64
with every pixel finite.  Each entry point below gets each bad image in
each of its image arguments (the other one valid) and must raise a
ValueError that names the problem.
"""

import numpy as np
import pytest

from dwtmark import metrics
from dwtmark.attacks import AttackSpec, apply_attack
from dwtmark.dwt import dwt2
from dwtmark.pixmap import input_image, write_image
from dwtmark.watermarker import EmbedConfig, embed_image, extract_image

SIZE = 64
CFG = EmbedConfig()


def good():
    x = np.arange(SIZE)
    return ((x[:, None] * x + 3 * x[:, None] + 7 * x) % 256).astype(np.float64)


def with_pixel(value):
    img = good()
    img[5, 7] = value
    return img


SHAPE = "non-empty 2-D image"
FINITE = "non-finite"
DTYPE = "need a real-valued image, got dtype"

# (id, bad image, what the message must say)
BAD = [(f"{name}-{np.dtype(dtype).name}", np.zeros(shape, dtype), SHAPE)
       for name, shape in (("1d", (SIZE,)), ("3d", (SIZE, SIZE, 2)),
                           ("0x0", (0, 0)), ("0x8", (0, 8)))
       for dtype in (np.uint8, np.float64)]
BAD += [(name, with_pixel(value), FINITE)
        for name, value in (("nan", np.nan), ("inf", np.inf),
                            ("-inf", -np.inf))]
BAD += [(name, img, DTYPE)
        for name, img in (("complex", good() + 0j), ("complex-imag", good() * 1j),
                          ("str", good().astype(str)),
                          ("object", good().astype(object)))]


def mark():
    return np.where(np.arange(256).reshape(16, 16) % 3, 1, -1)


# (id, call with the bad image in one argument)
ENTRY = {
    "dwt2": lambda img, _: dwt2(img, 3),
    "embed_image": lambda img, _: embed_image(img, mark(), CFG),
    "extract_image.cover": lambda img, _: extract_image(img, good(), CFG),
    "extract_image.received": lambda img, _: extract_image(good(), img, CFG),
    "apply_attack": lambda img, _: apply_attack(img, AttackSpec("median")),
    "write_image": lambda img, path: write_image(img, path),
}
for measure in (metrics.psnr, metrics.ssim, metrics.kl_security,
                metrics.mutual_information):
    name = measure.__name__
    ENTRY[f"{name}.first"] = lambda img, _, m=measure: m(img, good())
    ENTRY[f"{name}.second"] = lambda img, _, m=measure: m(good(), img)


@pytest.mark.parametrize("img, problem",
                         [pytest.param(img, problem, id=name)
                          for name, img, problem in BAD])
@pytest.mark.parametrize("entry", sorted(ENTRY))
def test_bad_image_refused_with_its_problem_named(tmp_path, entry, img,
                                                  problem):
    path = tmp_path / "out.pgm"
    with pytest.raises(ValueError, match=problem):
        ENTRY[entry](img, path)
    assert not path.exists()


@pytest.mark.parametrize("entry", sorted(ENTRY))
def test_good_image_accepted(tmp_path, entry):
    ENTRY[entry](good(), tmp_path / "out.pgm")


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64])
def test_integer_images_pass_as_they_are(dtype):
    img = good().astype(dtype)
    assert input_image(img, "x") is img


@pytest.mark.parametrize("dtype", [np.float32, np.float64, bool])
def test_other_images_pass_as_float64(dtype):
    img = good().astype(dtype)
    out = input_image(img, "x")
    assert out.dtype == np.float64 and np.array_equal(out, img)


def test_the_message_names_the_argument():
    with pytest.raises(ValueError, match="^second: need a non-empty 2-D"):
        metrics.psnr(good(), np.zeros((0, 0)))
    with pytest.raises(ValueError, match="^second image has non-finite"):
        metrics.ssim(good(), with_pixel(np.inf))
