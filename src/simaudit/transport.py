"""JSON over HTTP(S) for the remote providers, and the one module that
imports urllib and http. RemoteEmbedder and HttpLLMProvider import it when
they are built, so a run with the mock model and the fallback embedder never
loads the HTTP stack, nor the ssl and email modules it pulls in."""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.parse
import urllib.request

from .errors import ProviderError, decode_json


class _Redirect(urllib.request.HTTPRedirectHandler):
    """Follows 307 and 308 with the same method, body and headers (301, 302
    and 303 turn into a GET, as in the standard library), and drops the
    Authorization header on any redirect to another scheme, host or port."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        if code in (307, 308):
            new = urllib.request.Request(newurl, req.data, req.headers, method=req.get_method())
        else:
            new = super().redirect_request(req, fp, code, msg, headers, newurl)
        if _origin(new.full_url) != _origin(req.full_url):
            new.remove_header("Authorization")
        return new


def _origin(url: str) -> tuple:
    parts = urllib.parse.urlsplit(url)
    return parts.scheme, parts.hostname, parts.port or {"http": 80, "https": 443}.get(parts.scheme)


class JsonEndpoint:
    """POSTs JSON to url, with api_key (if any) as a bearer token, on one
    connection closed after each reply. The opener is built once, here, so
    HTTP_PROXY and HTTPS_PROXY are read when the provider is built; NO_PROXY
    is read at each request.

    Every failure raises ProviderError(f"{what} endpoint failed: {reason}"): a
    URL that is not http(s), a body that is not strict JSON (NaN, say), a
    non-2xx status (the reason names it), a transport failure or timeout, a
    reply that is not JSON or nests past the recursion limit, or one that
    lacks the asked-for path."""

    def __init__(self, url: str, api_key: str | None, timeout: float, what: str):
        self.url, self.timeout, self.what = url, timeout, what
        self.headers = {"Content-Type": "application/json"}
        if api_key:
            self.headers["Authorization"] = f"Bearer {api_key}"
        self._opener = urllib.request.build_opener(_Redirect)

    def post(self, body, *path):
        """POST body and return the decoded reply's value at path, its keys
        and indices in turn: post(body, "vectors") is reply["vectors"]."""
        try:
            request = urllib.request.Request(
                self.url, data=json.dumps(body, allow_nan=False).encode("utf-8"),
                method="POST", headers=self.headers)
            if request.type not in ("http", "https"):  # the opener would read file: URLs too
                raise ValueError(f"not an http(s) URL: {self.url!r}")
            with self._opener.open(request, timeout=self.timeout) as resp:
                value = decode_json(resp.read(), self._failure)
        except urllib.error.HTTPError as exc:
            exc.close()
            raise self._failure(exc) from exc
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise self._failure(exc) from exc
        try:
            for key in path:
                value = value[key]
        except (KeyError, IndexError, TypeError) as exc:
            raise self._failure(exc) from exc
        return value

    def _failure(self, exc) -> ProviderError:
        return ProviderError(f"{self.what} endpoint failed: {exc}")
