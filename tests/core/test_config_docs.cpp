/**
 * @file
 * docs/CONFIGURATION.md documents every key of the config schema: each
 * (section, key) row of core::configFields() must appear, as `key`, in
 * the part of the document under a heading that names `[section]`.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/config_io.h"

namespace {

/** The text under every "## " heading that mentions `[section]`. */
std::string
sectionText(const std::string &doc, const std::string &section)
{
    std::string out;
    std::istringstream in(doc);
    bool inside = false;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("## ", 0) == 0)
            inside = line.find("`[" + section + "]`") != std::string::npos;
        else if (inside)
            out += line + '\n';
    }
    return out;
}

TEST(ConfigDocs, EveryKeyIsDocumentedInItsSection)
{
    std::ifstream file(NPS_CONFIG_DOC);
    ASSERT_TRUE(file) << NPS_CONFIG_DOC;
    std::stringstream doc;
    doc << file.rdbuf();
    for (const auto &f : nps::core::configFields()) {
        std::string text = sectionText(doc.str(), f.section);
        EXPECT_FALSE(text.empty()) << "no heading for [" << f.section << "]";
        EXPECT_NE(text.find(std::string("`") + f.key + "`"),
                  std::string::npos)
            << "[" << f.section << "] " << f.key << " is not documented";
    }
}

} // namespace
