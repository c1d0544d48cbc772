"""Imaging substrate: a from-scratch NumPy replacement for the Java JAI stack.

The paper's pseudo-code manipulates ``PlanarImage`` / ``RenderedImage`` /
``BufferedImage`` objects through the Java Advanced Imaging (JAI) library.
This package reimplements every imaging operation the paper relies on:

- :mod:`repro.imaging.image` -- the :class:`Image` container plus PPM/PGM/BMP
  file codecs (so images can round-trip through real files and database BLOBs).
- :mod:`repro.imaging.color` -- color-space conversion (RGB/HSV/gray) using the
  paper's own ``{0.114, 0.587, 0.299}`` luminance matrix, and quantizers.
- :mod:`repro.imaging.resize` -- nearest-neighbour and bilinear rescaling
  (the paper rescales to 300x300 with ``InterpolationNearest``).
- :mod:`repro.imaging.histogram` -- gray-level and per-channel histograms.
- :mod:`repro.imaging.filters` -- 2-D convolution and classic kernels.
- :mod:`repro.imaging.morphology` -- binary dilation/erosion with the paper's
  5x5 box structuring element.
- :mod:`repro.imaging.threshold` -- Huang's minimum-fuzziness threshold
  (JAI's ``Histogram.getMinFuzzinessThreshold`` equivalent).
- :mod:`repro.imaging.draw` -- a primitive rasterizer used by the synthetic
  video generator.
"""

from repro.imaging.image import Image, ImageFormatError, read_image, write_image
from repro.imaging.color import (
    hsv_to_rgb,
    rgb_to_gray,
    rgb_to_hsv,
    quantize_hsv,
    quantize_uniform,
)
from repro.imaging.resize import resize
from repro.imaging.histogram import gray_histogram
from repro.imaging.filters import box_kernel, convolve2d, gaussian_kernel, sobel_gradients
from repro.imaging.morphology import binary_close, binary_dilate, binary_erode, binary_open
from repro.imaging.threshold import binarize, min_fuzziness_threshold

__all__ = [
    "Image",
    "ImageFormatError",
    "read_image",
    "write_image",
    "rgb_to_gray",
    "rgb_to_hsv",
    "hsv_to_rgb",
    "quantize_hsv",
    "quantize_uniform",
    "resize",
    "gray_histogram",
    "convolve2d",
    "gaussian_kernel",
    "box_kernel",
    "sobel_gradients",
    "binary_dilate",
    "binary_erode",
    "binary_open",
    "binary_close",
    "min_fuzziness_threshold",
    "binarize",
]
