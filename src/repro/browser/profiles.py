"""Fingerprint profiles per (browser, OS, run mode).

The profile database encodes the deviation structure the paper measured
(Tables 2, 3, 4): every OpenWPM run mode differs from a stock Firefox in
specific, reproducible ways — fixed screen geometry and window position,
``navigator.webdriver``, missing WebGL in headless mode, llvmpipe/VMware
renderers under Xvfb/Docker, a single font and UTC timezone in Docker,
and extra ``navigator.languages`` properties in headless mode.

Values that the real study measured on physical machines (exact WebGL
parameter sets) are generated deterministically with matching
cardinalities, so surface *diffs* have the paper's shape.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.jsobject.descriptors import PropertyDescriptor

# ---------------------------------------------------------------------------
# WebGL property universe
# ---------------------------------------------------------------------------

_REAL_WEBGL_NAMES = [
    "VENDOR", "RENDERER", "VERSION", "SHADING_LANGUAGE_VERSION",
    "MAX_TEXTURE_SIZE", "MAX_VIEWPORT_DIMS", "MAX_RENDERBUFFER_SIZE",
    "MAX_VERTEX_ATTRIBS", "MAX_VERTEX_UNIFORM_VECTORS",
    "MAX_FRAGMENT_UNIFORM_VECTORS", "MAX_VARYING_VECTORS",
    "MAX_COMBINED_TEXTURE_IMAGE_UNITS", "MAX_TEXTURE_IMAGE_UNITS",
    "MAX_VERTEX_TEXTURE_IMAGE_UNITS", "MAX_CUBE_MAP_TEXTURE_SIZE",
    "ALIASED_LINE_WIDTH_RANGE", "ALIASED_POINT_SIZE_RANGE",
    "DEPTH_BITS", "STENCIL_BITS", "RED_BITS", "GREEN_BITS", "BLUE_BITS",
    "ALPHA_BITS", "SUBPIXEL_BITS", "SAMPLE_BUFFERS", "SAMPLES",
    "COMPRESSED_TEXTURE_FORMATS", "UNMASKED_VENDOR_WEBGL",
    "UNMASKED_RENDERER_WEBGL", "MAX_ANISOTROPY_EXT",
]

#: Shared-core cardinality: properties every Firefox-engine client has.
_WEBGL_CORE_COUNT = 2000
#: Per-OS extras (macOS HM missing 2037 total, Ubuntu HM missing 2061).
_WEBGL_MACOS_EXTRA = 2037 - _WEBGL_CORE_COUNT
_WEBGL_UBUNTU_EXTRA = 2061 - _WEBGL_CORE_COUNT
#: Properties that also occur on non-Firefox browsers (paper Sec. 3.3
#: found ~200 of the WebGL deviations were not unique to OpenWPM).
_WEBGL_SHARED_WITH_OTHER_BROWSERS = 200


def _stable_token(namespace: str, index: int) -> str:
    digest = hashlib.sha256(f"{namespace}:{index}".encode()).hexdigest()
    return digest[:8]


def _generated_webgl_names(namespace: str, count: int) -> List[str]:
    return [f"GL_{namespace.upper()}_{_stable_token(namespace, i)}"
            for i in range(count)]


def webgl_property_names(os_name: str) -> List[str]:
    """The WebGL property names a regular Firefox exposes on *os_name*."""
    return list(_webgl_names(os_name))


@functools.lru_cache(maxsize=None)
def _webgl_names(os_name: str) -> Tuple[str, ...]:
    names = list(_REAL_WEBGL_NAMES)
    names.extend(_generated_webgl_names(
        "core", _WEBGL_CORE_COUNT - len(_REAL_WEBGL_NAMES)))
    if os_name == "macos":
        names.extend(_generated_webgl_names("macos", _WEBGL_MACOS_EXTRA))
    else:
        names.extend(_generated_webgl_names("ubuntu", _WEBGL_UBUNTU_EXTRA))
    return tuple(names)


def _default_webgl_values(names: List[str], vendor: str,
                          renderer: str) -> Dict[str, Any]:
    values: Dict[str, Any] = {}
    for name in names:
        if name in ("VENDOR", "UNMASKED_VENDOR_WEBGL"):
            values[name] = vendor
        elif name in ("RENDERER", "UNMASKED_RENDERER_WEBGL"):
            values[name] = renderer
        elif name == "VERSION":
            values[name] = "WebGL 1.0"
        elif name == "SHADING_LANGUAGE_VERSION":
            values[name] = "WebGL GLSL ES 1.0"
        else:
            # Deterministic numeric parameter.
            values[name] = float(int(
                hashlib.sha256(name.encode()).hexdigest()[:4], 16))
    return values


# ---------------------------------------------------------------------------
# Profile dataclass
# ---------------------------------------------------------------------------

@dataclass
class BrowserProfile:
    """Everything that determines a client's JS-visible fingerprint."""

    name: str
    browser: str  # 'firefox' | 'chrome' | 'safari' | 'opera'
    os: str  # 'macos' | 'ubuntu'
    mode: str  # 'regular' | 'headless' | 'xvfb' | 'docker'
    browser_version: int = 100
    #: navigator.* data properties.
    navigator: Dict[str, Any] = field(default_factory=dict)
    #: Extra properties polluting navigator.languages (headless quirk).
    languages_extra: List[str] = field(default_factory=list)
    #: screen.* properties.
    screen: Dict[str, float] = field(default_factory=dict)
    window_size: Tuple[int, int] = (1366, 683)
    window_position: Tuple[int, int] = (0, 0)
    window_offset: Tuple[int, int] = (0, 0)
    #: WebGL parameter map; None models a missing WebGL implementation.
    webgl: Optional[Dict[str, Any]] = None
    fonts: List[str] = field(default_factory=list)
    timezone_offset: int = -60  # minutes, JS getTimezoneOffset convention
    #: True when driven by WebDriver (sets navigator.webdriver).
    automation: bool = False
    #: Free-form notes for reports.
    notes: str = ""

    @property
    def is_display_less(self) -> bool:
        return self.mode in ("headless", "xvfb")

    @property
    def has_webgl(self) -> bool:
        return self.webgl is not None

    def webgl_descriptors(self) -> Dict[str, PropertyDescriptor]:
        """The WebGL parameters as immutable data descriptors.

        Fixed at the first call, like the windows built from them. When
        ``webgl`` still equals its Firefox setup's parameters, the
        descriptors are the ones every window of that setup shares.
        """
        cached = getattr(self, "_webgl_descriptors", None)
        if cached is None:
            if self.browser == "firefox" \
                    and (self.os, self.mode) in _WEBGL_RENDERERS \
                    and _firefox_webgl(self.os, self.mode) == self.webgl:
                cached = _shared_webgl_descriptors(self.os, self.mode)
            else:
                cached = _data_descriptors(self.webgl or {})
            self._webgl_descriptors = cached
        return cached


_DEFAULT_FONTS = [
    "Arial", "Courier New", "DejaVu Sans", "DejaVu Serif", "FreeMono",
    "FreeSans", "Georgia", "Helvetica", "Liberation Mono",
    "Liberation Sans", "Noto Sans", "Times New Roman", "Ubuntu",
    "Ubuntu Mono", "Verdana",
]

_FIREFOX_UA = (
    "Mozilla/5.0 ({os_token}; rv:{version}.0) Gecko/20100101 "
    "Firefox/{version}.0")
_OS_TOKENS = {
    "macos": "Macintosh; Intel Mac OS X 10.15",
    "ubuntu": "X11; Ubuntu; Linux x86_64",
}


def _firefox_navigator(os_name: str, version: int,
                       automation: bool) -> Dict[str, Any]:
    extra: Dict[str, Any] = {}
    if os_name == "macos":
        # macOS builds expose one extra navigator property, which is why
        # the instrument tampers with 253 properties there vs 252
        # elsewhere (Table 2).
        extra["standalone"] = False
    return {
        **extra,
        "userAgent": _FIREFOX_UA.format(os_token=_OS_TOKENS[os_name],
                                        version=version),
        "platform": "MacIntel" if os_name == "macos" else "Linux x86_64",
        "appName": "Netscape",
        "appVersion": "5.0 (X11)" if os_name == "ubuntu" else "5.0 (Macintosh)",
        "product": "Gecko",
        "vendor": "",
        "language": "en-US",
        "languages": ["en-US", "en"],
        "hardwareConcurrency": 8.0,
        "doNotTrack": "unspecified",
        "cookieEnabled": True,
        "onLine": True,
        "webdriver": automation,
        "oscpu": "Intel Mac OS X 10.15" if os_name == "macos"
        else "Linux x86_64",
        "buildID": "20181001000000",
        "maxTouchPoints": 0.0,
        "pdfViewerEnabled": True,
        "productSub": "20100101",
    }


def _screen_props(resolution: Tuple[int, int],
                  avail_top: int, avail_left: int) -> Dict[str, float]:
    width, height = resolution
    return {
        "width": float(width),
        "height": float(height),
        "availWidth": float(width - avail_left),
        "availHeight": float(height - avail_top),
        "availTop": float(avail_top),
        "availLeft": float(avail_left),
        "colorDepth": 24.0,
        "pixelDepth": 24.0,
        "top": 0.0,
        "left": 0.0,
    }


# Table 3 / Table 4 geometry and renderer constants.
_OPENWPM_GEOMETRY = {
    # (os, mode): resolution, window position (X, Y), offset, availTop/Left
    ("macos", "regular"): ((2560, 1440), (23, 4), (0, 0), (23, 0)),
    ("macos", "headless"): ((1366, 768), (4, 4), (0, 0), (0, 0)),
    ("ubuntu", "regular"): ((2560, 1440), (80, 35), (8, 8), (27, 72)),
    ("ubuntu", "headless"): ((1366, 768), (0, 0), (0, 0), (0, 0)),
    ("ubuntu", "xvfb"): ((1366, 768), (0, 0), (0, 0), (0, 0)),
    ("ubuntu", "docker"): ((2560, 1440), (0, 0), (0, 0), (27, 72)),
}

_WEBGL_RENDERERS = {
    ("macos", "regular"): ("Apple", "Apple M1, or similar"),
    ("ubuntu", "regular"): ("AMD", "AMD TAHITI"),
    ("ubuntu", "xvfb"): ("Mesa/X.org",
                         "llvmpipe (LLVM 12.0.0, 256 bits)"),
    ("ubuntu", "docker"): ("VMware, Inc.",
                           "llvmpipe (LLVM 10.0.0, 256 bits)"),
    ("macos", "xvfb"): ("Mesa/X.org", "llvmpipe (LLVM 12.0.0, 256 bits)"),
    ("macos", "docker"): ("VMware, Inc.",
                          "llvmpipe (LLVM 10.0.0, 256 bits)"),
}

#: Cardinalities of WebGL deviations relative to a regular Firefox
#: (Table 2/Sec. 3.1.2): Xvfb shows 5 changed + 13 missing = 18 total.
#: Four of the changed ones are the vendor/renderer parameters (already
#: deviating via the llvmpipe strings), so one extra change is injected.
_XVFB_CHANGED, _XVFB_MISSING = 1, 13
_DOCKER_CHANGED = 27


def stock_firefox_profile(os_name: str = "ubuntu", version: int = 100,
                          resolution: Tuple[int, int] = (1920, 1080),
                          ) -> BrowserProfile:
    """A human-driven Firefox on a desktop machine (the diff baseline)."""
    avail_top, avail_left = (27, 72) if os_name == "ubuntu" else (23, 0)
    return BrowserProfile(
        name=f"firefox-{os_name}",
        browser="firefox",
        os=os_name,
        mode="regular",
        browser_version=version,
        navigator=_firefox_navigator(os_name, version, automation=False),
        screen=_screen_props(resolution, avail_top, avail_left),
        window_size=(1280, 940),
        window_position=(214, 97),
        window_offset=(0, 0),
        webgl=_firefox_webgl(os_name, "regular").copy(),
        fonts=list(_DEFAULT_FONTS),
        timezone_offset=-60,
        automation=False,
    )


@functools.lru_cache(maxsize=None)
def _firefox_webgl(os_name: str, mode: str) -> Optional[Dict[str, Any]]:
    """The WebGL parameters of a Firefox setup; callers copy, never
    mutate, the memoized dict.

    A stock Firefox has those of the OpenWPM ``regular`` mode; headless
    Firefox has none.
    """
    if mode == "headless":
        return None  # headless Firefox lacks a WebGL implementation
    names = _webgl_names(os_name)
    vendor, renderer = _WEBGL_RENDERERS[(os_name, mode)]
    webgl = _default_webgl_values(names, vendor, renderer)
    if mode == "xvfb":
        for name in names[10:10 + _XVFB_CHANGED]:
            webgl[name] = "xvfb-deviation"
        for name in names[40:40 + _XVFB_MISSING]:
            del webgl[name]
    elif mode == "docker":
        # vendor/renderer rows already deviate; change more parameters
        # until exactly _DOCKER_CHANGED properties differ.
        already = 4  # VENDOR, RENDERER, UNMASKED_*
        for name in names[60:60 + (_DOCKER_CHANGED - already)]:
            webgl[name] = "vmware-deviation"
    return webgl


@functools.lru_cache(maxsize=None)
def _headless_language_pollution() -> Tuple[str, ...]:
    return tuple(f"hdl_{_stable_token('langpollution', i)}"
                 for i in range(43))


def _data_descriptors(values: Mapping[str, Any]
                      ) -> Dict[str, PropertyDescriptor]:
    return {name: PropertyDescriptor.data(value, writable=False)
            for name, value in values.items()}


@functools.lru_cache(maxsize=None)
def _shared_webgl_descriptors(os_name: str, mode: str
                              ) -> Dict[str, PropertyDescriptor]:
    return _data_descriptors(_firefox_webgl(os_name, mode) or {})


def openwpm_profile(os_name: str = "ubuntu", mode: str = "regular",
                    version: int = 100,
                    window_size: Optional[Tuple[int, int]] = None,
                    window_position: Optional[Tuple[int, int]] = None,
                    ) -> BrowserProfile:
    """An OpenWPM-driven unbranded Firefox in the given run mode.

    ``window_size`` / ``window_position`` override the framework's fixed
    defaults — the knob the hardened configuration exposes (Sec. 6.1.5).
    """
    if (os_name, mode) not in _OPENWPM_GEOMETRY:
        raise ValueError(f"unsupported setup: {os_name}/{mode}")
    resolution, position, offset, avail = _OPENWPM_GEOMETRY[(os_name, mode)]
    avail_top, avail_left = avail
    navigator = _firefox_navigator(os_name, version, automation=True)
    languages_extra: List[str] = []
    if mode == "headless":
        languages_extra = list(_headless_language_pollution())

    shared_webgl = _firefox_webgl(os_name, mode)
    webgl = shared_webgl.copy() if shared_webgl is not None else None

    fonts = list(_DEFAULT_FONTS)
    timezone_offset = -60
    if mode == "docker":
        fonts = ["Bitstream Vera Sans Mono"]
        timezone_offset = 0

    return BrowserProfile(
        name=f"openwpm-{os_name}-{mode}",
        browser="firefox",
        os=os_name,
        mode=mode,
        browser_version=version,
        navigator=navigator,
        languages_extra=languages_extra,
        screen=_screen_props(resolution, avail_top, avail_left),
        window_size=window_size or (1366, 683),
        window_position=window_position or position,
        window_offset=offset,
        webgl=webgl,
        fonts=fonts,
        timezone_offset=timezone_offset,
        automation=True,
    )


def _other_browser_profile(browser: str, os_name: str,
                           user_agent: str, vendor: str,
                           renderer: str) -> BrowserProfile:
    """A non-Firefox consumer browser (for detector validation).

    Shares ~200 WebGL property names/values with the Firefox universe
    (the overlap the paper found and removed in Sec. 3.3); the rest of
    its surface is its own.
    """
    shared = webgl_property_names(os_name)[:_WEBGL_SHARED_WITH_OTHER_BROWSERS]
    webgl = _default_webgl_values(shared, vendor, renderer)
    webgl.update({
        f"GL_{browser.upper()}_{_stable_token(browser, i)}": float(i)
        for i in range(1800)
    })
    navigator = {
        "userAgent": user_agent,
        "platform": "MacIntel" if os_name == "macos" else "Linux x86_64",
        "language": "en-US",
        "languages": ["en-US", "en"],
        "webdriver": False,
        "vendor": "Google Inc." if browser in ("chrome", "opera")
        else "Apple Computer, Inc." if browser == "safari" else "",
        "hardwareConcurrency": 8.0,
        "cookieEnabled": True,
    }
    return BrowserProfile(
        name=f"{browser}-{os_name}",
        browser=browser,
        os=os_name,
        mode="regular",
        navigator=navigator,
        screen=_screen_props((1920, 1080), 23 if os_name == "macos" else 27,
                             0 if os_name == "macos" else 72),
        window_size=(1400, 900),
        window_position=(120, 80),
        webgl=webgl,
        fonts=list(_DEFAULT_FONTS),
        timezone_offset=-60,
        automation=False,
    )


def chrome_profile(os_name: str = "ubuntu") -> BrowserProfile:
    return _other_browser_profile(
        "chrome", os_name,
        "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like "
        "Gecko) Chrome/102.0.5005.61 Safari/537.36",
        "Google Inc. (Intel)", "ANGLE (Intel, Mesa Intel(R) UHD)")


def safari_profile(os_name: str = "macos") -> BrowserProfile:
    return _other_browser_profile(
        "safari", os_name,
        "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) "
        "AppleWebKit/605.1.15 (KHTML, like Gecko) Version/15.5 Safari/605.1.15",
        "Apple Inc.", "Apple GPU")


def opera_profile(os_name: str = "ubuntu") -> BrowserProfile:
    return _other_browser_profile(
        "opera", os_name,
        "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like "
        "Gecko) Chrome/102.0.0.0 Safari/537.36 OPR/88.0.4412.27",
        "Google Inc. (AMD)", "ANGLE (AMD Radeon)")


def consumer_profiles() -> List[BrowserProfile]:
    """The validation fleet of Sec. 3.3: 2 Macs + 2 Ubuntu PCs, each with
    the common consumer browsers."""
    profiles: List[BrowserProfile] = []
    for os_name in ("macos", "ubuntu"):
        profiles.append(stock_firefox_profile(os_name))
        profiles.append(chrome_profile(os_name))
        profiles.append(opera_profile(os_name))
    profiles.append(safari_profile("macos"))
    return profiles
