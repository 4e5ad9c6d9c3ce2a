"""CSP blocking of instrumentation injection (paper Sec. 5.1.2).

The vanilla instrument enters the page by injecting an inline
``<script>`` element, which a ``script-src`` directive without
``'unsafe-inline'`` forbids. The page's own (allow-listed) scripts keep
running — un-instrumented — and a ``csp_report`` request documents the
failed injection (the row Table 8 tracks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.browser.profiles import BrowserProfile, openwpm_profile
from repro.core.attacks.dispatcher import AttackOutcome, _make_extension
from repro.core.lab import visit_with_scripts

#: A policy that allows the site's own scripts but no inline injection.
BLOCKING_CSP = "script-src 'self'; report-uri /csp"

#: A CSP that explicitly allows inline scripts (control condition).
PERMISSIVE_CSP = "script-src 'self' 'unsafe-inline'; report-uri /csp"


@dataclass
class CSPAttackOutcome(AttackOutcome):
    csp_reports: int = 0
    inline_scripts_blocked: bool = False


def run_csp_blocking_attack(profile: Optional[BrowserProfile] = None,
                            stealth: bool = False,
                            csp_header: str = BLOCKING_CSP
                            ) -> CSPAttackOutcome:
    """Serve a page whose CSP forbids inline scripts; check recording.

    With the vanilla instrument the injection violates the CSP: no JS
    records are produced and a csp_report fires. The hardened instrument
    (exportFunction; no DOM injection) is untouched by the policy.

    Note the page's own probing activity is delivered as an *external*
    allow-listed script would be — here we emulate that by exempting
    lab-page inline scripts via the harness: the page body contains only
    markup, and probing happens through a same-origin external script.
    """
    extension = _make_extension(stealth)
    profile = profile or openwpm_profile("ubuntu", "regular")

    # The probing runs as a same-origin external script so that the CSP
    # only affects the extension's inline injection.
    from repro.core.lab import LAB_URL
    from repro.browser.browser import Browser
    from repro.net.http import HttpResponse
    from repro.net.network import FunctionServer, Network
    from repro.net.page import PageSpec, ScriptItem

    page = PageSpec(url=LAB_URL, csp_header=csp_header, items=[
        ScriptItem(src="/probe.js"),
    ])
    probe_source = "navigator.platform;\nscreen.width;\n"

    network = Network()

    def serve(request, client, net):
        if request.url.path == "/probe.js":
            return HttpResponse(content_type="text/javascript",
                                body=probe_source)
        if request.url.path == "/csp":
            return HttpResponse(status=204, content_type="text/plain")
        return HttpResponse(page=page, body=page.to_html())

    network.register_domain("lab.test", FunctionServer(serve))
    browser = Browser(profile, network, extension=extension)
    result = browser.visit(LAB_URL, wait=10)

    from repro.core.attacks.dispatcher import normalized_symbols

    symbols = extension.js_instrument.symbols_accessed()
    reports = [e for e in result.exchanges
               if e.request.resource_type == "csp_report"]
    probe_recorded = "navigator.platform" in normalized_symbols(
        extension.js_instrument)
    return CSPAttackOutcome(
        attack="csp-blocking",
        succeeded=not probe_recorded,
        recorded_symbols=symbols,
        csp_reports=len(reports),
        inline_scripts_blocked=bool(extension.js_instrument.blocked_urls),
        details=f"{len(reports)} csp_report request(s); "
                f"probe recorded: {probe_recorded}")
