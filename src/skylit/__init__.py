"""skylit: desk-scale differentiable inverse rendering for outdoor scenes.

Learnable SDF + albedo grids rendered with NeuS-style volume weights, a
latent spherical illumination model constrained by sky pixels, and
outside-in sky visibility through a spherical directional distance field,
all trained end-to-end on a small reverse-mode tape.
"""

from .cameras import Camera
from .fields import AlbedoField, RaySamples, SceneFields, SdfField, sphere_trace
from .geometry import (
    DirectionSet,
    icosphere_directions,
    ray_sphere_exit,
    so3_jitter,
    srgb,
)
from .illumination import (
    IlluminationBank,
    LobeDecoder,
    export_envmap,
    prior_loss,
    radiance,
)
from .losses import DdfBatch
from .metrics import mse, psnr
from .render import RenderOutput, render_image
from .scenes import Dataset, SyntheticScene, generate_dataset, load_dataset, make_scene
from .tape import Tape, Var, backward, gradient_check
from .train import (
    Adam,
    TrainConfig,
    Trainer,
    fit_holdout_illumination,
    gravity_align,
    sample_ray_batch,
)
from .visibility import (
    DdfField,
    VisibilityParams,
    ambient_occlusion,
    ddf_eval,
    soft_visibility,
    visibility_map,
)

__version__ = "0.1.0"
