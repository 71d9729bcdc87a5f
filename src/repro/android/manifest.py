"""AndroidManifest model with binary AXML and text XML round-trips."""

from repro.android.axml import XmlElement, decode_axml, encode_axml
from repro.android.components import (
    Activity,
    ELEMENT_TAG_TO_COMPONENT,
)
from repro.errors import ManifestError


def _int_attribute(element, name, default):
    """An integer attribute; a non-integer value is a ManifestError."""
    raw = element.get(name, default)
    try:
        return int(raw)
    except ValueError:
        raise ManifestError("non-integer %s: %r" % (name, raw))


class AndroidManifest:
    """An app manifest: package identity, sdk levels, permissions, components."""

    def __init__(self, package, version_code=1, version_name="1.0",
                 min_sdk=21, target_sdk=33, permissions=None, components=None):
        if not package or "." not in package:
            raise ManifestError("package must be a dotted name: %r" % (package,))
        self.package = package
        self.version_code = int(version_code)
        self.version_name = version_name
        self.min_sdk = int(min_sdk)
        self.target_sdk = int(target_sdk)
        self.permissions = list(permissions or [])
        self.components = list(components or [])

    # -- component accessors -------------------------------------------------

    @property
    def activities(self):
        return [c for c in self.components if c.kind == "activity"]

    @property
    def services(self):
        return [c for c in self.components if c.kind == "service"]

    @property
    def receivers(self):
        return [c for c in self.components if c.kind == "receiver"]

    @property
    def providers(self):
        return [c for c in self.components if c.kind == "provider"]

    def component_by_name(self, name):
        for component in self.components:
            if component.name == name:
                return component
        return None

    def launcher_activity(self):
        for activity in self.activities:
            if activity.is_launcher:
                return activity
        return None

    def deep_link_activities(self):
        """Activities the paper's pipeline excludes (Section 3.1.3)."""
        return [a for a in self.activities if a.is_deep_link_handler]

    # -- XML round-trips ------------------------------------------------------

    def to_element(self):
        root = XmlElement(
            "manifest",
            {
                "xmlns:android": "http://schemas.android.com/apk/res/android",
                "package": self.package,
                "android:versionCode": str(self.version_code),
                "android:versionName": self.version_name,
            },
        )
        root.add(
            XmlElement(
                "uses-sdk",
                {
                    "android:minSdkVersion": str(self.min_sdk),
                    "android:targetSdkVersion": str(self.target_sdk),
                },
            )
        )
        for permission in self.permissions:
            root.add(XmlElement("uses-permission", {"android:name": permission}))
        application = root.add(XmlElement("application"))
        for component in self.components:
            application.add(component.to_element())
        return root

    @classmethod
    def from_element(cls, root):
        if root.tag != "manifest":
            raise ManifestError("root element must be <manifest>, got <%s>"
                                % root.tag)
        package = root.get("package")
        version_code = _int_attribute(root, "android:versionCode", "1")
        version_name = root.get("android:versionName", "1.0")
        min_sdk, target_sdk = 21, 33
        uses_sdk = root.find("uses-sdk")
        if uses_sdk is not None:
            min_sdk = _int_attribute(uses_sdk, "android:minSdkVersion", "21")
            target_sdk = _int_attribute(uses_sdk, "android:targetSdkVersion",
                                        "33")
        permissions = [
            p.get("android:name") for p in root.find_all("uses-permission")
        ]
        components = []
        application = root.find("application")
        if application is not None:
            for child in application.children:
                component_cls = ELEMENT_TAG_TO_COMPONENT.get(child.tag)
                if component_cls is not None:
                    components.append(component_cls.from_element(child))
        return cls(
            package,
            version_code=version_code,
            version_name=version_name,
            min_sdk=min_sdk,
            target_sdk=target_sdk,
            permissions=permissions,
            components=components,
        )

    def to_axml_bytes(self):
        return encode_axml(self.to_element())

    @classmethod
    def from_axml_bytes(cls, data):
        return cls.from_element(decode_axml(data))

    def to_xml(self):
        return self.to_element().to_xml()

    # -------------------------------------------------------------------------

    def add_activity(self, name, exported=False, intent_filters=None):
        activity = Activity(name, exported=exported,
                            intent_filters=intent_filters)
        self.components.append(activity)
        return activity

    def __eq__(self, other):
        return isinstance(other, AndroidManifest) and (
            (self.package, self.version_code, self.version_name,
             self.min_sdk, self.target_sdk, self.permissions, self.components)
            == (other.package, other.version_code, other.version_name,
                other.min_sdk, other.target_sdk, other.permissions,
                other.components)
        )

    def __repr__(self):
        return "AndroidManifest(%s v%d, %d components)" % (
            self.package, self.version_code, len(self.components)
        )
